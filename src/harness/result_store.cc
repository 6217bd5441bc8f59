#include "harness/result_store.hh"

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "attack/eviction_pool.hh"
#include "attack/flip_checker.hh"
#include "attack/pair_finder.hh"
#include "attack/spray.hh"
#include "attack/timing.hh"
#include "attack/tlb_eviction.hh"
#include "common/json.hh"
#include "common/parse.hh"
#include "common/table.hh"
#include "harness/campaign.hh"

namespace pth
{

namespace
{

/** Fold a string into the hash, length-prefixed. */
std::uint64_t
mixString(std::uint64_t h, const std::string &s)
{
    h = hashCombine(h, s.size());
    for (char c : s)
        h = hashCombine(h, static_cast<unsigned char>(c));
    return h;
}

/** Fold a double's bit pattern into the hash. */
std::uint64_t
mixDouble(std::uint64_t h, double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return hashCombine(h, bits);
}

void
writeString(std::ostream &out, const char *name, const std::string &v,
            bool comma = true)
{
    out << '"' << name << "\": \"" << jsonEscape(v) << '"'
        << (comma ? ", " : "");
}

void
writeBool(std::ostream &out, const char *name, bool v,
          bool comma = true)
{
    out << '"' << name << "\": " << (v ? "true" : "false")
        << (comma ? ", " : "");
}

void
writeU64(std::ostream &out, const char *name, std::uint64_t v,
         bool comma = true)
{
    out << '"' << name << "\": " << v << (comma ? ", " : "");
}

void
writeDouble(std::ostream &out, const char *name, double v,
            bool comma = true)
{
    out << '"' << name << "\": " << jsonDouble(v)
        << (comma ? ", " : "");
}

/** Fetch a required member; sets ok = false when absent. */
const JsonValue *
need(const JsonValue &obj, const char *name, bool &ok)
{
    const JsonValue *v = obj.find(name);
    if (!v)
        ok = false;
    return v;
}

// The getters are strict: a present-but-mistyped field marks the
// line corrupt (ok = false) rather than decaying to zero/false and
// letting a mangled journal entry masquerade as a completed run.

std::string
getString(const JsonValue &obj, const char *name, bool &ok)
{
    const JsonValue *v = need(obj, name, ok);
    if (v && !v->isString())
        ok = false;
    return v && v->isString() ? v->asString() : std::string();
}

bool
getBool(const JsonValue &obj, const char *name, bool &ok)
{
    const JsonValue *v = need(obj, name, ok);
    if (v && v->kind() != JsonValue::Kind::Bool)
        ok = false;
    return v ? v->asBool() : false;
}

/** A whole non-negative decimal that fits T: "-5", "1.5", "3e0" and
 * values past T's range mark the line corrupt instead of reading as
 * 0 or saturating. */
template <class T>
T
getUnsigned(const JsonValue &obj, const char *name, bool &ok)
{
    const JsonValue *v = need(obj, name, ok);
    T value = 0;
    if (v && !v->asUnsigned(value))
        ok = false;
    return value;
}

/**
 * A JSON number, or one of the quoted non-finite tokens jsonDouble
 * emits ("nan"/"inf"/"-inf", read back with strtod).
 */
bool
numberValue(const JsonValue &v, double &out)
{
    if (v.isNumber()) {
        out = v.asDouble();
        return true;
    }
    if (v.isString()) {
        const std::string &s = v.asString();
        if (s == "nan" || s == "inf" || s == "-inf") {
            out = std::strtod(s.c_str(), nullptr);
            return true;
        }
    }
    return false;
}

double
getDouble(const JsonValue &obj, const char *name, bool &ok)
{
    const JsonValue *v = need(obj, name, ok);
    double value = 0.0;
    if (v && !numberValue(*v, value))
        ok = false;
    return value;
}

} // namespace

std::uint64_t
specKey(const RunSpec &spec)
{
    std::uint64_t h = 0x9e5717;
    h = mixString(h, spec.label);
    h = hashCombine(h, static_cast<std::uint64_t>(spec.preset),
                    static_cast<std::uint64_t>(spec.defense),
                    static_cast<std::uint64_t>(spec.strategy));
    h = hashCombine(h, spec.seed, spec.nopPadding,
                    spec.explicitBufferBytes);
    h = hashCombine(h, spec.tweakMachine ? 1 : 0, spec.body ? 1 : 0);
    // Keyed only when non-default so journals written before the flip
    // models existed stay valid, while results from different models
    // can never satisfy each other's resume.
    if (spec.dramModel != FlipModelKind::Ddr3Seeded)
        h = hashCombine(h, 0xd7a11,
                        static_cast<std::uint64_t>(spec.dramModel));
    // Multi-hart fields, keyed only when non-default for the same
    // reason: single-hart journals predate them.
    if (spec.harts != 1)
        h = hashCombine(h, 0x4a2475, spec.harts);
    if (spec.interleave != InterleaveMode::RoundRobin ||
        spec.interleaveSeed != 0)
        h = hashCombine(h, 0x17e8e4,
                        static_cast<std::uint64_t>(spec.interleave),
                        spec.interleaveSeed);

    // The attack constants (kUserSharedFrames, ...) are folded too:
    // every journal key written so far includes them, and resume
    // matches runs by key.
    const AttackConfig &a = spec.attack;
    h = hashCombine(h, a.superpages, a.sprayBytes, kUserSharedFrames);
    h = hashCombine(h, kTlbProfileCount, kTlbPoolFactor,
                    a.llcSelectCount);
    h = hashCombine(h, a.llcSelectDetailedCount,
                    a.superpageSampleClasses, a.regularSampleClasses);
    h = hashCombine(h, a.regularSampleGroups, kLlcBuildRepeats,
                    kLlcSetSizeMargin);
    h = hashCombine(h, a.tlbSetSizeMargin, a.hammerIterations,
                    a.hammerWarmupIterations);
    h = hashCombine(h, kBankProbeCount, a.maxAttempts,
                    kTimingNoiseCycles);
    h = mixDouble(h, a.hammerBudgetSeconds);
    h = mixDouble(h, a.timingNoiseProbability);
    h = mixDouble(h, a.exhaustKernelFraction);
    h = hashCombine(h, kCheckCyclesPerPage, a.credSprayProcesses,
                    a.seed);
    h = hashCombine(h, kUserDataBase, kSprayBase, kTlbPoolBase);
    h = hashCombine(h, kLlcBufferBase, kScratchBase);
    // poolBuild.threads is deliberately excluded: the pool is
    // byte-identical at any worker count, so a journal survives a
    // --pool-threads change.
    h = hashCombine(h,
                    static_cast<std::uint64_t>(a.poolBuild.algorithm));
    // Victim harts only matter to the multi-hart strategy; keyed only
    // when non-default so pre-existing journals keep their keys.
    if (a.victimHarts != 0)
        h = hashCombine(h, 0x71c711, a.victimHarts);
    // Keyed only when non-default, like dramModel: attack-scoped
    // seeding changes what a nonzero seed means for the run.
    if (spec.seedScope != SeedScope::AllStreams)
        h = hashCombine(h, 0x5eed5c,
                        static_cast<std::uint64_t>(spec.seedScope));
    return h;
}

std::uint64_t
specKey(const RunSpec &spec, bool sharedMachine)
{
    std::uint64_t h = specKey(spec);
    if (sharedMachine)
        h = hashCombine(h, 0x54a9ed);
    return h;
}

ResultStore::ResultStore(const std::string &path, bool truncate)
    : path_(path)
{
    // A journal whose process was killed mid-write can end in a torn
    // line with no newline. Appending straight after it would glue
    // the next record onto the torn prefix, corrupting that record
    // too — terminate the torn line first.
    bool needNewline = false;
    if (!truncate) {
        std::ifstream in(path_, std::ios::binary | std::ios::ate);
        if (in && in.tellg() > 0) {
            in.seekg(-1, std::ios::end);
            char last = '\n';
            in.get(last);
            needNewline = last != '\n';
        }
    }
    out_.open(path_, truncate ? (std::ios::out | std::ios::trunc)
                              : (std::ios::out | std::ios::app));
    if (!out_)
        throw std::runtime_error("cannot open campaign journal: " +
                                 path_);
    if (needNewline)
        out_ << '\n';
}

void
ResultStore::record(const RunResult &result, std::uint64_t key)
{
    std::string line = serialize(result, key);
    MutexLock lock(mtx_);
    out_ << line << '\n';
    out_.flush();
}

std::string
ResultStore::serialize(const RunResult &r, std::uint64_t key)
{
    std::ostringstream out;
    out << '{';
    writeU64(out, "v", 1);
    out << "\"key\": \""
        << strfmt("%016llx", static_cast<unsigned long long>(key))
        << "\", ";
    writeU64(out, "index", r.index);
    writeString(out, "label", r.label);
    writeString(out, "machine", r.machine);
    writeString(out, "defense", r.defense);
    writeString(out, "strategy", r.strategy);
    // Optional (written only when known) so journals from before the
    // field existed keep their bytes: an old line re-serializes
    // identically, and a default-constructed result round-trips.
    if (!r.dramModel.empty())
        writeString(out, "dram_model", r.dramModel);
    writeU64(out, "seed", r.seed);
    writeBool(out, "ok", r.ok);
    writeString(out, "error", r.error);
    writeBool(out, "flipped", r.flipped);
    writeBool(out, "escalated", r.escalated);
    writeU64(out, "flips", r.flips);
    writeU64(out, "attempts", r.attempts);
    writeU64(out, "flips_until_escalation", r.flipsUntilEscalation);
    writeString(out, "exploit_path", r.exploitPath);
    writeDouble(out, "sim_seconds", r.simSeconds);
    writeDouble(out, "wall_seconds", r.wallSeconds);

    out << "\"metrics\": [";
    for (std::size_t i = 0; i < r.metrics.size(); ++i)
        out << (i ? ", " : "") << "[\""
            << jsonEscape(r.metrics[i].first) << "\", "
            << jsonDouble(r.metrics[i].second) << ']';
    out << "], ";

    const AttackReport &rep = r.report;
    out << "\"report\": {";
    writeString(out, "machine", rep.machine);
    writeBool(out, "superpages", rep.superpages);
    writeString(out, "defense", rep.defense);
    writeDouble(out, "spray_ms", rep.sprayMs);
    writeDouble(out, "tlb_prep_ms", rep.tlbPrepMs);
    writeDouble(out, "llc_prep_minutes", rep.llcPrepMinutes);
    writeDouble(out, "tlb_select_micros", rep.tlbSelectMicros);
    writeDouble(out, "llc_select_ms", rep.llcSelectMs);
    writeDouble(out, "hammer_ms", rep.hammerMs);
    writeDouble(out, "check_seconds", rep.checkSeconds);
    writeDouble(out, "time_to_flip_minutes",
                rep.timeToFirstFlipMinutes);
    writeBool(out, "flipped", rep.flipped);
    writeBool(out, "escalated", rep.escalated);
    writeU64(out, "attempts", rep.attempts);
    writeU64(out, "flips_observed", rep.flipsObserved);
    writeU64(out, "flips_until_escalation", rep.flipsUntilEscalation);
    writeString(out, "exploit_path", rep.exploitPath,
                /*comma=*/false);
    out << "}}";
    return out.str();
}

bool
ResultStore::deserialize(const std::string &line, Entry &out)
{
    JsonValue doc;
    if (!JsonValue::parse(line, doc) || !doc.isObject())
        return false;

    bool ok = true;
    if (getUnsigned<unsigned>(doc, "v", ok) != 1)
        return false;

    // The key is exactly the 16 hex digits serialize() writes.
    const JsonValue *keyField = doc.find("key");
    Entry entry;
    if (!keyField || !keyField->isString() ||
        keyField->asString().size() != 16 ||
        !parseWhole(keyField->asString(), entry.key, 16))
        return false;

    RunResult &r = entry.result;
    r.index = getUnsigned<std::size_t>(doc, "index", ok);
    r.label = getString(doc, "label", ok);
    r.machine = getString(doc, "machine", ok);
    r.defense = getString(doc, "defense", ok);
    r.strategy = getString(doc, "strategy", ok);
    // dram_model is optional: absent on pre-field journals (stays
    // empty = "unrecorded"), but mistyped-if-present is corrupt.
    if (const JsonValue *dm = doc.find("dram_model")) {
        if (!dm->isString())
            return false;
        r.dramModel = dm->asString();
    }
    r.seed = getUnsigned<std::uint64_t>(doc, "seed", ok);
    r.ok = getBool(doc, "ok", ok);
    r.error = getString(doc, "error", ok);
    r.flipped = getBool(doc, "flipped", ok);
    r.escalated = getBool(doc, "escalated", ok);
    r.flips = getUnsigned<std::uint64_t>(doc, "flips", ok);
    r.attempts = getUnsigned<unsigned>(doc, "attempts", ok);
    r.flipsUntilEscalation =
        getUnsigned<unsigned>(doc, "flips_until_escalation", ok);
    r.exploitPath = getString(doc, "exploit_path", ok);
    r.simSeconds = getDouble(doc, "sim_seconds", ok);
    r.wallSeconds = getDouble(doc, "wall_seconds", ok);

    const JsonValue *metrics = doc.find("metrics");
    if (!metrics || !metrics->isArray())
        return false;
    for (const JsonValue &item : metrics->items()) {
        double value = 0.0;
        if (!item.isArray() || item.items().size() != 2 ||
            !item.items()[0].isString() ||
            !numberValue(item.items()[1], value))
            return false;
        r.metrics.emplace_back(item.items()[0].asString(), value);
    }

    const JsonValue *report = doc.find("report");
    if (!report || !report->isObject())
        return false;
    AttackReport &rep = r.report;
    rep.machine = getString(*report, "machine", ok);
    rep.superpages = getBool(*report, "superpages", ok);
    rep.defense = getString(*report, "defense", ok);
    rep.sprayMs = getDouble(*report, "spray_ms", ok);
    rep.tlbPrepMs = getDouble(*report, "tlb_prep_ms", ok);
    rep.llcPrepMinutes = getDouble(*report, "llc_prep_minutes", ok);
    rep.tlbSelectMicros =
        getDouble(*report, "tlb_select_micros", ok);
    rep.llcSelectMs = getDouble(*report, "llc_select_ms", ok);
    rep.hammerMs = getDouble(*report, "hammer_ms", ok);
    rep.checkSeconds = getDouble(*report, "check_seconds", ok);
    rep.timeToFirstFlipMinutes =
        getDouble(*report, "time_to_flip_minutes", ok);
    rep.flipped = getBool(*report, "flipped", ok);
    rep.escalated = getBool(*report, "escalated", ok);
    rep.attempts = getUnsigned<unsigned>(*report, "attempts", ok);
    rep.flipsObserved =
        getUnsigned<unsigned>(*report, "flips_observed", ok);
    rep.flipsUntilEscalation =
        getUnsigned<unsigned>(*report, "flips_until_escalation", ok);
    rep.exploitPath = getString(*report, "exploit_path", ok);

    if (!ok)
        return false;
    out = std::move(entry);
    return true;
}

std::map<std::size_t, ResultStore::Entry>
ResultStore::load(const std::string &path, LoadStats *stats)
{
    std::map<std::size_t, Entry> entries;
    LoadStats local;
    std::ifstream in(path);
    local.found = static_cast<bool>(in);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        Entry entry;
        if (deserialize(line, entry)) {
            ++local.parsed;
            entries[entry.result.index] = std::move(entry);
        } else {
            ++local.corruptLines;
        }
    }
    if (stats)
        *stats = local;
    return entries;
}

bool
ResultStore::merge(const std::vector<std::string> &inputs,
                   std::ostream &out, MergeStats *stats)
{
    MergeStats local;
    std::map<std::size_t, Entry> merged;
    for (const std::string &path : inputs) {
        LoadStats read;
        auto entries = load(path, &read);
        if (!read.found) {
            ++local.missingInputs;
            continue;
        }
        ++local.inputs;
        local.corruptLines += read.corruptLines;
        // Lines load() folded away were superseded within the file.
        local.overwritten += read.parsed - entries.size();
        for (auto &item : entries)
            if (!merged.insert_or_assign(item.first,
                                         std::move(item.second))
                     .second)
                ++local.overwritten;
    }
    local.entries = merged.size();

    for (const auto &item : merged)
        out << serialize(item.second.result, item.second.key) << '\n';
    out.flush();
    if (stats)
        *stats = local;
    return static_cast<bool>(out);
}

bool
ResultStore::merge(const std::vector<std::string> &inputs,
                   const std::string &outPath, MergeStats *stats,
                   std::string *error)
{
    std::ofstream out(outPath, std::ios::out | std::ios::trunc);
    if (!out) {
        if (error)
            *error = "cannot write merged journal: " + outPath;
        return false;
    }
    if (!merge(inputs, out, stats)) {
        if (error)
            *error = "short write on merged journal: " + outPath;
        return false;
    }
    return true;
}

} // namespace pth
