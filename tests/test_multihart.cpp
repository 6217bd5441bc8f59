/**
 * @file
 * Multi-hart Machine contract tests.
 *
 * The hard contract this suite pins: harts = 1 (the default) behaves
 * byte-identically to the single-hart implementation it replaced —
 * boot fingerprints, workload fingerprints under every DRAM flip
 * model, and a full end-to-end PThammer run are asserted against
 * values captured before the multi-hart refactor. On top of that:
 * per-hart state isolation (private L1/TLB, shared L2/LLC/DRAM),
 * interleaver determinism, journal spec-key compatibility, snapshot
 * fork equality at harts > 1 across all DRAM models, and campaign
 * byte-identity serial vs. threaded for multi-hart sweeps.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <vector>

#include "attack/pthammer.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "cpu/interleaver.hh"
#include "cpu/machine.hh"
#include "dram/flip_model.hh"
#include "harness/campaign.hh"
#include "harness/result_store.hh"

namespace pth
{
namespace
{

constexpr VirtAddr kVa = 0x2400'0000;

/** The pre-refactor fingerprint of a freshly booted test machine. */
constexpr std::uint64_t kBootFp = 0x24a8f5ea26469b9bull;

/** Pre-refactor fingerprints of the reference workload per model. */
constexpr std::uint64_t kWorkloadFp[] = {
    0x70f151caa4acdc03ull,  // Ddr3Seeded
    0x4dd934d420c05862ull,  // Trr
    0x70f151caa4acdc03ull,  // Distance2 (same traffic, no flips land)
    0xaee330609e2c5545ull,  // Ecc
};

constexpr FlipModelKind kModels[] = {
    FlipModelKind::Ddr3Seeded,
    FlipModelKind::Trr,
    FlipModelKind::Distance2,
    FlipModelKind::Ecc,
};

/** Pre-refactor journal key of a default-constructed RunSpec. */
constexpr std::uint64_t kDefaultSpecKey = 0x99683127729adf60ull;

/**
 * The reference workload the pre-refactor fingerprints were captured
 * from: translation, cache and DRAM traffic with periodic clflushes,
 * finished by a batched access burst.
 */
void
referenceWorkload(Machine &machine)
{
    Process &proc = machine.kernel().createProcess(1000);
    machine.cpu().setProcess(proc);
    machine.kernel().mmapAnon(proc, kVa, 64 * kPageBytes);
    Rng rng(0xfeed);
    for (int i = 0; i < 400; ++i) {
        const std::uint64_t page = rng.below(64);
        VirtAddr va = kVa + page * kPageBytes + rng.below(8) * 64;
        machine.cpu().access(va);
        if (i % 23 == 0)
            machine.cpu().clflush(va);
    }
    std::vector<VirtAddr> batch;
    for (int i = 0; i < 32; ++i)
        batch.push_back(kVa + rng.below(64) * kPageBytes);
    machine.cpu().accessBatch(batch);
}

/** Per-hart traffic on a multi-hart machine (hart h, own process). */
void
hartTraffic(Machine &machine, unsigned hart, std::uint64_t salt)
{
    Process &proc =
        machine.kernel().createProcess(2000 + hart);
    machine.kernel().mmapAnon(proc, kVa, 32 * kPageBytes);
    machine.cpu(hart).setProcess(proc);
    Rng rng(0x4a27 + salt);
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t page = rng.below(32);
        machine.cpu(hart).access(kVa + page * kPageBytes +
                                 rng.below(8) * 64);
    }
}

} // namespace

// ---------------------------------------------------------------------
// harts = 1 is byte-identical to the pre-refactor implementation.
// ---------------------------------------------------------------------

TEST(MultiHartPins, BootFingerprintUnchanged)
{
    MachineConfig config = MachineConfig::testSmall();
    ASSERT_EQ(config.harts, 1u);
    Machine machine(config);
    EXPECT_EQ(machine.hartCount(), 1u);
    EXPECT_EQ(machine.stateFingerprint(), kBootFp);
}

TEST(MultiHartPins, WorkloadFingerprintsUnchangedAllModels)
{
    for (std::size_t i = 0; i < std::size(kModels); ++i) {
        MachineConfig config = MachineConfig::testSmall();
        if (kModels[i] != FlipModelKind::Ddr3Seeded)
            config.withDramModel(kModels[i]);
        Machine machine(config);
        referenceWorkload(machine);
        EXPECT_EQ(machine.stateFingerprint(), kWorkloadFp[i])
            << "model " << flipModelKindName(kModels[i]);
    }
}

/** The full end-to-end attack replays the pre-refactor capture under
 * every DRAM model: same flips, same attempt count, same final machine
 * state. */
TEST(MultiHartPins, PthammerRunUnchanged)
{
    struct Pin
    {
        unsigned flips;
        unsigned attempts;
        std::uint64_t fingerprint;
    };
    // Indexed like kModels.
    constexpr Pin kPins[] = {
        {9, 120, 0x9e30aa2afe6c2d60ull},  // Ddr3Seeded
        {0, 120, 0x00ac007d6397ff6aull},  // Trr
        {9, 120, 0x9e30aa2afe6c2d60ull},  // Distance2
        {0, 120, 0x71447f965977f23dull},  // Ecc
    };
    for (std::size_t i = 0; i < std::size(kModels); ++i) {
        SCOPED_TRACE(flipModelKindName(kModels[i]));
        AttackConfig attack;
        attack.superpages = true;
        attack.sprayBytes = 24ull << 20;
        attack.superpageSampleClasses = 2;
        attack.maxAttempts = 120;
        attack.hammerBudgetSeconds = 36000;
        MachineConfig config = MachineConfig::testSmall();
        if (kModels[i] != FlipModelKind::Ddr3Seeded)
            config.withDramModel(kModels[i]);
        Machine machine(config);
        PThammerAttack pthammer(machine, attack);
        AttackReport report = pthammer.run();
        EXPECT_EQ(report.flipsObserved, kPins[i].flips);
        EXPECT_EQ(report.attempts, kPins[i].attempts);
        EXPECT_EQ(machine.stateFingerprint(), kPins[i].fingerprint);
    }
}

/** A victim hart draws each load's line index, then its page, from
 * its Rng. The victims' mean latency and the final machine state of a
 * 2-hart batch (one aggressor, one victim) are pinned; swapping the
 * two draws changes the final state. */
TEST(MultiHartPins, VictimHartBatchUnchanged)
{
    MachineConfig config = MachineConfig::testSmall();
    config.harts = 2;
    Machine machine(config);
    AttackConfig attack;
    attack.superpages = true;
    attack.sprayBytes = 24ull << 20;
    attack.superpageSampleClasses = 2;
    PThammerAttack pthammer(machine, attack);
    pthammer.prepare();
    auto pair = pthammer.pairs().next();
    ASSERT_TRUE(pair.has_value());
    HammerRunResult r = pthammer.hammer().runBatch({&*pair, 1}, 1, 1000);
    EXPECT_EQ(r.victims, 1u);
    EXPECT_EQ(r.victimMeanLatency, 185.11702127659575);
    EXPECT_EQ(machine.stateFingerprint(), 0xbe9d2023fb7bed98ull);
}

// ---------------------------------------------------------------------
// Journal spec keys: defaults unchanged, every new field folds in.
// ---------------------------------------------------------------------

TEST(MultiHartSpecKey, DefaultKeyUnchanged)
{
    RunSpec def;
    EXPECT_EQ(specKey(def), kDefaultSpecKey);
}

TEST(MultiHartSpecKey, NewFieldsPerturbTheKey)
{
    const RunSpec def;
    const std::uint64_t base = specKey(def);

    RunSpec harts = def;
    harts.harts = 2;
    EXPECT_NE(specKey(harts), base);

    RunSpec mode = def;
    mode.interleave = InterleaveMode::Seeded;
    EXPECT_NE(specKey(mode), base);

    RunSpec seed = def;
    seed.interleaveSeed = 7;
    EXPECT_NE(specKey(seed), base);
    EXPECT_NE(specKey(seed), specKey(mode));

    RunSpec victims = def;
    victims.attack.victimHarts = 1;
    EXPECT_NE(specKey(victims), base);
}

// ---------------------------------------------------------------------
// Interleaver: deterministic merge order.
// ---------------------------------------------------------------------

TEST(MultiHartInterleaver, RoundRobinCyclesAndFinish)
{
    Interleaver rr(InterleaveMode::RoundRobin, 0, 3);
    EXPECT_EQ(rr.next(), 0u);
    EXPECT_EQ(rr.next(), 1u);
    EXPECT_EQ(rr.next(), 2u);
    EXPECT_EQ(rr.next(), 0u);
    rr.finish(1);
    EXPECT_EQ(rr.activeCount(), 2u);
    EXPECT_EQ(rr.next(), 2u);
    EXPECT_EQ(rr.next(), 0u);
    EXPECT_EQ(rr.next(), 2u);
    rr.finish(0);
    rr.finish(2);
    EXPECT_TRUE(rr.done());
}

TEST(MultiHartInterleaver, SeededIsReproduciblePerSeed)
{
    auto sequence = [](std::uint64_t seed) {
        Interleaver il(InterleaveMode::Seeded, seed, 4);
        std::vector<unsigned> order;
        for (int i = 0; i < 64; ++i)
            order.push_back(il.next());
        return order;
    };
    EXPECT_EQ(sequence(1), sequence(1));
    EXPECT_NE(sequence(1), sequence(2));

    // Every hart gets scheduled (no starvation over a long window).
    std::vector<unsigned> order = sequence(1);
    for (unsigned hart = 0; hart < 4; ++hart)
        EXPECT_NE(std::count(order.begin(), order.end(), hart), 0)
            << "hart " << hart << " never scheduled";
}

TEST(MultiHartInterleaver, ModeNamesRoundTrip)
{
    InterleaveMode mode = InterleaveMode::RoundRobin;
    std::uint64_t seed = 5;
    EXPECT_TRUE(parseInterleaveMode("seeded", mode, seed));
    EXPECT_EQ(mode, InterleaveMode::Seeded);
    EXPECT_EQ(seed, 0u);
    EXPECT_TRUE(parseInterleaveMode("random", mode, seed));
    EXPECT_EQ(mode, InterleaveMode::Seeded);
    EXPECT_TRUE(parseInterleaveMode("round-robin", mode, seed));
    EXPECT_EQ(mode, InterleaveMode::RoundRobin);
    EXPECT_TRUE(parseInterleaveMode("rr", mode, seed));
    EXPECT_EQ(mode, InterleaveMode::RoundRobin);
    EXPECT_TRUE(parseInterleaveMode("seeded:7", mode, seed));
    EXPECT_EQ(mode, InterleaveMode::Seeded);
    EXPECT_EQ(seed, 7u);
    EXPECT_TRUE(parseInterleaveMode("rr:3", mode, seed));
    EXPECT_EQ(mode, InterleaveMode::RoundRobin);
    EXPECT_EQ(seed, 3u);
    EXPECT_TRUE(parseInterleaveMode("seeded:18446744073709551615", mode,
                                    seed));
    EXPECT_EQ(seed, ~0ull);

    // Anything else fails and leaves both outputs as they were.
    mode = InterleaveMode::RoundRobin;
    seed = 5;
    for (const char *bad : {"bogus", "seeded:", "seeded:abc", "seeded:7x",
                            "seeded:-1", "seeded:+1",
                            "seeded:18446744073709551616", ":7"}) {
        EXPECT_FALSE(parseInterleaveMode(bad, mode, seed)) << bad;
        EXPECT_EQ(mode, InterleaveMode::RoundRobin) << bad;
        EXPECT_EQ(seed, 5u) << bad;
    }
    EXPECT_STREQ(interleaveModeName(InterleaveMode::RoundRobin),
                 "round-robin");
    EXPECT_STREQ(interleaveModeName(InterleaveMode::Seeded), "seeded");
}

// ---------------------------------------------------------------------
// Topology: private L1/TLB per hart, shared L2/LLC/DRAM.
// ---------------------------------------------------------------------

TEST(MultiHartTopology, HartTrafficTouchesOnlyItsOwnL1AndTlb)
{
    MachineConfig config = MachineConfig::testSmall();
    config.harts = 4;
    Machine machine(config);
    ASSERT_EQ(machine.hartCount(), 4u);
    ASSERT_EQ(machine.caches().hartCount(), 4u);

    std::vector<std::uint64_t> l1Before;
    std::vector<std::uint64_t> mmuBefore;
    for (unsigned h = 0; h < 4; ++h) {
        l1Before.push_back(machine.caches().l1d(h).stateHash());
        mmuBefore.push_back(machine.mmu(h).stateHash());
    }
    const std::uint64_t l2Before = machine.caches().l2().stateHash();

    hartTraffic(machine, 2, 0);

    for (unsigned h = 0; h < 4; ++h) {
        if (h == 2)
            continue;
        EXPECT_EQ(machine.caches().l1d(h).stateHash(), l1Before[h])
            << "hart " << h << " L1 touched by hart 2 traffic";
        EXPECT_EQ(machine.mmu(h).stateHash(), mmuBefore[h])
            << "hart " << h << " TLB touched by hart 2 traffic";
    }
    EXPECT_NE(machine.caches().l1d(2).stateHash(), l1Before[2]);
    EXPECT_NE(machine.mmu(2).stateHash(), mmuBefore[2]);
    // The shared levels see the traffic.
    EXPECT_NE(machine.caches().l2().stateHash(), l2Before);
}

TEST(MultiHartTopology, ClflushIsMachineWideCoherent)
{
    MachineConfig config = MachineConfig::testSmall();
    config.harts = 2;
    Machine machine(config);

    Process &proc = machine.kernel().createProcess(1000);
    machine.kernel().mmapAnon(proc, kVa, 4 * kPageBytes);
    machine.cpu(0).setProcess(proc);
    machine.cpu(1).setProcess(proc);

    // Warm the line on hart 1, flush from hart 0: hart 1's next
    // access must miss its L1 again (eviction reached every L1).
    machine.cpu(1).access(kVa);
    const Cycles warm = machine.cpu(1).access(kVa).latency;
    machine.cpu(0).clflush(kVa);
    const Cycles afterFlush = machine.cpu(1).access(kVa).latency;
    EXPECT_GT(afterFlush, warm);
}

/** One-element accessBatch is exactly access — same clock charge,
 * same cache/TLB state — on every hart. The audit behind it: both
 * paths must route data traffic through the same hart L1 now that
 * L2/LLC are shared. */
TEST(MultiHartTopology, AccessBatchSingleMatchesAccess)
{
    MachineConfig config = MachineConfig::testSmall();
    config.harts = 2;
    Machine viaAccess(config);
    Machine viaBatch(config);
    ASSERT_EQ(viaAccess.stateFingerprint(),
              viaBatch.stateFingerprint());

    for (Machine *machine : {&viaAccess, &viaBatch}) {
        Process &proc = machine->kernel().createProcess(1000);
        machine->kernel().mmapAnon(proc, kVa, 32 * kPageBytes);
        machine->cpu(1).setProcess(proc);
    }
    Rng rng(0xba7c4);
    for (int i = 0; i < 150; ++i) {
        const std::uint64_t page = rng.below(32);
        VirtAddr va = kVa + page * kPageBytes + rng.below(8) * 64;
        viaAccess.cpu(1).access(va);
        viaBatch.cpu(1).accessBatch({va});
    }
    EXPECT_EQ(viaAccess.clock().now(), viaBatch.clock().now());
    EXPECT_EQ(viaAccess.caches().stateHash(),
              viaBatch.caches().stateHash());
    EXPECT_EQ(viaAccess.mmu(1).stateHash(),
              viaBatch.mmu(1).stateHash());
    EXPECT_EQ(viaAccess.stateFingerprint(),
              viaBatch.stateFingerprint());
}

// ---------------------------------------------------------------------
// Snapshot fork at harts > 1, across every DRAM model.
// ---------------------------------------------------------------------

TEST(MultiHartSnapshot, ForkEqualsOriginalAcrossModels)
{
    for (FlipModelKind model : kModels) {
        MachineConfig config = MachineConfig::testSmall();
        config.harts = 2;
        if (model != FlipModelKind::Ddr3Seeded)
            config.withDramModel(model);
        Machine machine(config);
        hartTraffic(machine, 0, 1);
        hartTraffic(machine, 1, 2);

        MachineSnapshot snap(machine);
        std::unique_ptr<Machine> forked = snap.instantiate();
        ASSERT_EQ(forked->hartCount(), 2u);
        EXPECT_EQ(forked->stateFingerprint(),
                  machine.stateFingerprint())
            << "model " << flipModelKindName(model);

        // Divergence isolation: driving the fork's hart 1 must not
        // move the original.
        const std::uint64_t before = machine.stateFingerprint();
        hartTraffic(*forked, 1, 3);
        EXPECT_NE(forked->stateFingerprint(), before);
        EXPECT_EQ(machine.stateFingerprint(), before)
            << "model " << flipModelKindName(model);
    }
}

TEST(MultiHartSnapshot, DistinctHartCountsDistinctFingerprints)
{
    MachineConfig one = MachineConfig::testSmall();
    MachineConfig four = MachineConfig::testSmall();
    four.harts = 4;
    EXPECT_FALSE(one == four);
    Machine a(one);
    Machine b(four);
    EXPECT_NE(a.stateFingerprint(), b.stateFingerprint());
}

// ---------------------------------------------------------------------
// Campaign determinism: multi-hart sweeps, serial vs. threaded.
// ---------------------------------------------------------------------

TEST(MultiHartCampaign, SerialAndThreadedReportsAreByteIdentical)
{
    Campaign campaign;
    for (unsigned harts : {2u, 4u}) {
        RunSpec spec;
        spec.label = strfmt("mh%u", harts);
        spec.strategy = HammerStrategy::MultiHart;
        spec.harts = harts;
        spec.attack.superpages = true;
        spec.attack.sprayBytes = 24ull << 20;
        spec.attack.superpageSampleClasses = 2;
        spec.attack.maxAttempts = 8;
        spec.attack.hammerBudgetSeconds = 36000;
        campaign.add(spec);
        RunSpec victims = spec;
        victims.label += "+victim";
        victims.attack.victimHarts = 1;
        victims.interleave = InterleaveMode::Seeded;
        victims.interleaveSeed = 11;
        campaign.add(victims);
    }
    CampaignOptions serial;
    serial.threads = 1;
    CampaignOptions threaded;
    threaded.threads = 8;
    const std::string serialJson =
        Campaign::toJson(campaign.run(serial));
    const std::string threadedJson =
        Campaign::toJson(campaign.run(threaded));
    EXPECT_EQ(serialJson, threadedJson);
    EXPECT_NE(serialJson.find("multihart"), std::string::npos);
}

} // namespace pth
