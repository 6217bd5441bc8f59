/**
 * @file
 * Property/fuzz-style tests for the persistence substrate the
 * sharded campaign workflow rests on:
 *
 *  - randomized RunResult round-trips through the result-store
 *    journal line format, bit-exact for every field — including
 *    64-bit integers above 2^53 (which must never pass through a
 *    double) and doubles drawn from raw random bit patterns
 *    (denormals, -0.0, infinities, NaNs);
 *  - malformed-input rejection: truncations, byte mutations and
 *    pathological nesting must be rejected (or parsed) without
 *    crashing — a torn shard journal may contain anything;
 *  - spec-key stability: pinned hashes for a table of representative
 *    RunSpecs, so an accidental change to the key derivation (which
 *    would silently invalidate every existing journal, or worse,
 *    collide) fails loudly. Extending RunSpec/AttackConfig changes
 *    these values BY DESIGN — that invalidates old journals, so
 *    repin deliberately and say so in the commit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "harness/campaign.hh"
#include "harness/result_store.hh"

namespace pth
{
namespace
{

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

double
doubleOf(std::uint64_t bits)
{
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

/** Bit-exact comparison, except NaN payloads (the journal writes
 * every NaN as the token "nan" by design). */
void
expectSameDouble(double back, double orig, const char *what)
{
    if (std::isnan(orig))
        EXPECT_TRUE(std::isnan(back)) << what;
    else
        EXPECT_EQ(bitsOf(back), bitsOf(orig)) << what;
}

/** Random string over a troublesome alphabet (quotes, escapes,
 * control chars, high bytes, multi-byte UTF-8 fragments). */
std::string
randomString(Rng &rng, std::size_t maxLen)
{
    static const char alphabet[] =
        "ab\"\\\n\t\r\x01\x1f\x7f\xc3\xa9 {}[]:,0.5e+";
    const std::size_t len = rng.next() % (maxLen + 1);
    std::string s;
    s.reserve(len);
    for (std::size_t i = 0; i < len; ++i)
        s.push_back(
            alphabet[rng.next() % (sizeof(alphabet) - 1)]);
    return s;
}

/** A double worth round-tripping: raw random bits hit denormals,
 * NaNs and infinities; the curated list hits the classic edges. */
double
randomDouble(Rng &rng)
{
    static const double curated[] = {
        0.0,
        -0.0,
        1.0 / 3.0,
        0.1,
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::epsilon(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        1e308,
        -4.9406564584124654e-324,
        1.0000000000000002,
    };
    // determinism: the condition's draw is sequenced before the body's.
    if (rng.next() % 4 == 0)
        return curated[rng.next() %
                       (sizeof(curated) / sizeof(curated[0]))];
    return doubleOf(rng.next());
}

RunResult
randomResult(Rng &rng)
{
    RunResult r;
    r.index = rng.next() % 10000;
    r.label = randomString(rng, 24);
    r.machine = randomString(rng, 12);
    r.defense = randomString(rng, 12);
    r.strategy = randomString(rng, 12);
    r.seed = rng.next(); // full 64-bit range, often > 2^53
    r.ok = rng.next() % 2;
    r.error = randomString(rng, 16);
    r.flipped = rng.next() % 2;
    r.escalated = rng.next() % 2;
    r.flips = rng.next();
    r.attempts = static_cast<unsigned>(rng.next());
    r.flipsUntilEscalation = static_cast<unsigned>(rng.next());
    r.exploitPath = randomString(rng, 16);
    r.simSeconds = randomDouble(rng);
    r.wallSeconds = randomDouble(rng);
    const std::size_t metrics = rng.next() % 5;
    for (std::size_t i = 0; i < metrics; ++i)
        r.metrics.emplace_back(randomString(rng, 10),
                               randomDouble(rng));
    r.report.machine = randomString(rng, 12);
    r.report.superpages = rng.next() % 2;
    r.report.defense = randomString(rng, 8);
    r.report.sprayMs = randomDouble(rng);
    r.report.tlbPrepMs = randomDouble(rng);
    r.report.llcPrepMinutes = randomDouble(rng);
    r.report.tlbSelectMicros = randomDouble(rng);
    r.report.llcSelectMs = randomDouble(rng);
    r.report.hammerMs = randomDouble(rng);
    r.report.checkSeconds = randomDouble(rng);
    r.report.timeToFirstFlipMinutes = randomDouble(rng);
    r.report.flipped = rng.next() % 2;
    r.report.escalated = rng.next() % 2;
    r.report.attempts = static_cast<unsigned>(rng.next());
    r.report.flipsObserved = static_cast<unsigned>(rng.next());
    r.report.flipsUntilEscalation =
        static_cast<unsigned>(rng.next());
    r.report.exploitPath = randomString(rng, 16);
    return r;
}

TEST(PersistenceFuzz, RandomRunResultsRoundTripBitExactly)
{
    Rng rng(0x5eeded);
    for (unsigned iter = 0; iter < 300; ++iter) {
        const RunResult r = randomResult(rng);
        const std::uint64_t key = rng.next();

        ResultStore::Entry entry;
        ASSERT_TRUE(ResultStore::deserialize(
            ResultStore::serialize(r, key), entry))
            << "iteration " << iter;
        EXPECT_EQ(entry.key, key);

        const RunResult &b = entry.result;
        EXPECT_EQ(b.index, r.index);
        EXPECT_EQ(b.label, r.label);
        EXPECT_EQ(b.machine, r.machine);
        EXPECT_EQ(b.defense, r.defense);
        EXPECT_EQ(b.strategy, r.strategy);
        EXPECT_EQ(b.seed, r.seed);
        EXPECT_EQ(b.ok, r.ok);
        EXPECT_EQ(b.error, r.error);
        EXPECT_EQ(b.flipped, r.flipped);
        EXPECT_EQ(b.escalated, r.escalated);
        EXPECT_EQ(b.flips, r.flips);
        EXPECT_EQ(b.attempts, r.attempts);
        EXPECT_EQ(b.flipsUntilEscalation, r.flipsUntilEscalation);
        EXPECT_EQ(b.exploitPath, r.exploitPath);
        expectSameDouble(b.simSeconds, r.simSeconds, "simSeconds");
        expectSameDouble(b.wallSeconds, r.wallSeconds,
                         "wallSeconds");
        ASSERT_EQ(b.metrics.size(), r.metrics.size());
        for (std::size_t i = 0; i < r.metrics.size(); ++i) {
            EXPECT_EQ(b.metrics[i].first, r.metrics[i].first);
            expectSameDouble(b.metrics[i].second,
                             r.metrics[i].second, "metric");
        }
        EXPECT_EQ(b.report.machine, r.report.machine);
        EXPECT_EQ(b.report.superpages, r.report.superpages);
        EXPECT_EQ(b.report.defense, r.report.defense);
        expectSameDouble(b.report.sprayMs, r.report.sprayMs,
                         "sprayMs");
        expectSameDouble(b.report.tlbPrepMs, r.report.tlbPrepMs,
                         "tlbPrepMs");
        expectSameDouble(b.report.llcPrepMinutes,
                         r.report.llcPrepMinutes, "llcPrepMinutes");
        expectSameDouble(b.report.tlbSelectMicros,
                         r.report.tlbSelectMicros,
                         "tlbSelectMicros");
        expectSameDouble(b.report.llcSelectMs, r.report.llcSelectMs,
                         "llcSelectMs");
        expectSameDouble(b.report.hammerMs, r.report.hammerMs,
                         "hammerMs");
        expectSameDouble(b.report.checkSeconds,
                         r.report.checkSeconds, "checkSeconds");
        expectSameDouble(b.report.timeToFirstFlipMinutes,
                         r.report.timeToFirstFlipMinutes,
                         "timeToFirstFlipMinutes");
        EXPECT_EQ(b.report.flipped, r.report.flipped);
        EXPECT_EQ(b.report.escalated, r.report.escalated);
        EXPECT_EQ(b.report.attempts, r.report.attempts);
        EXPECT_EQ(b.report.flipsObserved, r.report.flipsObserved);
        EXPECT_EQ(b.report.flipsUntilEscalation,
                  r.report.flipsUntilEscalation);
        EXPECT_EQ(b.report.exploitPath, r.report.exploitPath);
    }
}

TEST(PersistenceFuzz, TruncationsNeverCrashAndNeverHalfParse)
{
    Rng rng(0xabc);
    RunResult r = randomResult(rng);
    r.label = "truncation victim";
    const std::string line = ResultStore::serialize(r, 0x1234);

    // Every strict prefix must be rejected cleanly (a torn write is
    // exactly such a prefix).
    for (std::size_t len = 0; len < line.size(); ++len) {
        ResultStore::Entry entry;
        EXPECT_FALSE(
            ResultStore::deserialize(line.substr(0, len), entry))
            << "prefix length " << len;
    }
    ResultStore::Entry entry;
    EXPECT_TRUE(ResultStore::deserialize(line, entry));
}

TEST(PersistenceFuzz, RandomMutationsNeverCrash)
{
    Rng rng(0xf002);
    RunResult base = randomResult(rng);
    const std::string line = ResultStore::serialize(base, 7);

    for (unsigned iter = 0; iter < 2000; ++iter) {
        std::string mutated = line;
        const unsigned edits = 1 + rng.next() % 4;
        for (unsigned e = 0; e < edits; ++e) {
            const std::size_t at = rng.next() % mutated.size();
            switch (rng.next() % 3) {
            case 0:
                mutated[at] =
                    static_cast<char>(rng.next() & 0xff);
                break;
            case 1:
                mutated.erase(at, 1 + rng.next() % 8);
                break;
            default:
                mutated.insert(at, 1, static_cast<char>(
                                          rng.next() & 0xff));
                break;
            }
            if (mutated.empty())
                break;
        }
        // Must not crash; parse-success is fine, half-parse is not
        // observable from here (deserialize is all-or-nothing).
        ResultStore::Entry entry;
        ResultStore::deserialize(mutated, entry);
        JsonValue doc;
        JsonValue::parse(mutated, doc);
    }
}

TEST(PersistenceFuzz, PathologicalNestingIsRejectedNotOverflowed)
{
    // 100k-deep nesting would smash the stack of a naive recursive
    // parser; the depth guard must reject it instead.
    JsonValue doc;
    EXPECT_FALSE(
        JsonValue::parse(std::string(100000, '['), doc));
    EXPECT_FALSE(
        JsonValue::parse(std::string(100000, '{'), doc));
    std::string alternating;
    for (int i = 0; i < 50000; ++i)
        alternating += "[{\"k\": ";
    EXPECT_FALSE(JsonValue::parse(alternating, doc));

    // The writer's dialect nests 3 deep; give the guard headroom.
    std::string shallow = "{\"a\": [[[{\"b\": [1, 2]}]]]}";
    EXPECT_TRUE(JsonValue::parse(shallow, doc));
}

TEST(PersistenceFuzz, HugeIntegersSurviveWithoutDoubleDetour)
{
    for (std::uint64_t value :
         {std::uint64_t(1) << 53, (std::uint64_t(1) << 53) + 1,
          std::uint64_t(0xdeadbeefcafef00d),
          std::numeric_limits<std::uint64_t>::max()}) {
        RunResult r;
        r.index = 1;
        r.label = "u64";
        r.seed = value;
        r.flips = value;
        ResultStore::Entry entry;
        ASSERT_TRUE(ResultStore::deserialize(
            ResultStore::serialize(r, value), entry));
        EXPECT_EQ(entry.key, value);
        EXPECT_EQ(entry.result.seed, value);
        EXPECT_EQ(entry.result.flips, value);
    }
}

/**
 * Pinned spec keys. These values are what every existing journal on
 * disk is keyed under; if this test fails, the key derivation
 * changed and ALL stored campaigns will silently re-execute (or
 * worse). Repin only for a deliberate, called-out format break.
 */
TEST(SpecKeyPin, RepresentativeSpecTableIsStable)
{
    struct Pinned
    {
        const char *name;
        std::uint64_t key;
    };
    const Pinned pins[] = {
        {"default", 0x99683127729adf60ull},
        {"labeled-seeded", 0xdfac904b39ffffc2ull},
        {"paper-catt", 0xd79379a1de60f93cull},
        {"explicit-nops", 0x896ca8028e2c5ab3ull},
        {"paper-catt-trr", 0x7821ee147d645f27ull},
        {"hooked", 0x225a85a07a16f85full},
        {"pool-single", 0x27b9d17bf0395815ull},
    };

    std::vector<RunSpec> specs(7);
    specs[0].label = "";

    specs[1].label = "t420/seed3";
    specs[1].seed = 3;

    specs[2].label = "Lenovo T420";
    specs[2].preset = MachinePreset::LenovoT420;
    specs[2].defense = DefenseKind::Catt;
    specs[2].strategy = HammerStrategy::PThammer;
    specs[2].seed = 42;
    specs[2].attack.sprayBytes = 1ull << 30;
    specs[2].attack.maxAttempts = 150;

    specs[3].label = "explicit";
    specs[3].strategy = HammerStrategy::Explicit;
    specs[3].nopPadding = 32;
    specs[3].explicitBufferBytes = 128ull << 20;

    specs[4] = specs[2];
    specs[4].dramModel = FlipModelKind::Trr;

    specs[5].label = "hooked";
    specs[5].tweakMachine = [](MachineConfig &) {};
    specs[5].body = [](Machine &, const AttackConfig &,
                       RunResult &) {};

    specs[6].label = "pool";
    specs[6].attack.poolBuild.algorithm =
        PoolBuildAlgorithm::SingleElimination;

    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(specKey(specs[i]), pins[i].key)
            << pins[i].name << ": spec-key derivation changed —"
            << " every stored journal is invalidated";

    // And none of the representatives may collide with another.
    for (std::size_t i = 0; i < specs.size(); ++i)
        for (std::size_t j = i + 1; j < specs.size(); ++j)
            EXPECT_NE(specKey(specs[i]), specKey(specs[j]))
                << pins[i].name << " vs " << pins[j].name;
}

/** Key stability is per-field sensitivity too: a sweep over single-
 * field perturbations must produce all-distinct keys (no aliasing
 * between neighbouring grid points). */
TEST(SpecKeyPin, SingleFieldPerturbationsNeverAlias)
{
    RunSpec base;
    base.label = "grid";
    base.seed = 1;

    std::vector<std::uint64_t> keys;
    keys.push_back(specKey(base));
    for (unsigned i = 1; i <= 32; ++i) {
        RunSpec s = base;
        s.seed = 1 + i;
        keys.push_back(specKey(s));
    }
    for (unsigned i = 0; i < 8; ++i) {
        RunSpec s = base;
        s.attack.hammerIterations += i + 1;
        keys.push_back(specKey(s));
        RunSpec t = base;
        t.attack.sprayBytes += i + 1;
        keys.push_back(specKey(t));
    }
    for (std::size_t i = 0; i < keys.size(); ++i)
        for (std::size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
}

} // namespace
} // namespace pth
