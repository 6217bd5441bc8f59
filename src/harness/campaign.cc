#include "harness/campaign.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <sstream>
#include <utility>

#include "attack/explicit_hammer.hh"
#include "attack/multi_hammer.hh"
#include "attack/pthammer.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/sync.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "cpu/machine.hh"
#include "dram/flip_model.hh"
#include "harness/result_store.hh"

namespace pth
{

namespace
{

/** Stream ids keeping the per-run seed derivations independent. */
enum SeedStream : std::uint64_t
{
    kStreamDisturbance = 1,
    kStreamKernel = 2,
    kStreamTlbL1 = 3,
    kStreamTlbL2 = 4,
    kStreamAttack = 5,
};

/** What a spec's declarative fields and seed resolve to. */
struct DerivedRun
{
    MachineConfig config;
    AttackConfig attack;
};

/**
 * Resolve a spec to the MachineConfig and AttackConfig its run uses:
 * preset, defense, DRAM model, seed re-keying per the spec's
 * SeedScope, then the tweakMachine hook. Deterministic — run() calls
 * it again during snapshot-sharing detection and must see the same
 * config runOne builds the machine from.
 */
DerivedRun
deriveRun(const RunSpec &spec)
{
    DerivedRun derived;
    derived.config = makeMachineConfig(spec.preset);
    derived.config.defense = spec.defense;
    if (spec.dramModel != FlipModelKind::Ddr3Seeded)
        derived.config.withDramModel(spec.dramModel);
    derived.config.harts = spec.harts;

    // Re-key every stochastic stream in scope from the run seed so
    // runs with different seeds decorrelate and equal seeds replay.
    // Seed 0 keeps the library defaults (exact replay of a
    // stand-alone, un-swept run).
    derived.attack = spec.attack;
    if (spec.seed != 0) {
        MachineConfig &config = derived.config;
        if (spec.seedScope == SeedScope::AllStreams) {
            config.disturbance.seed =
                hashCombine(config.disturbance.seed, spec.seed,
                            kStreamDisturbance);
            config.kernel.seed = hashCombine(config.kernel.seed,
                                             spec.seed, kStreamKernel);
            config.tlb.l1d.seed = hashCombine(config.tlb.l1d.seed,
                                              spec.seed, kStreamTlbL1);
            config.tlb.l2s.seed = hashCombine(config.tlb.l2s.seed,
                                              spec.seed, kStreamTlbL2);
        }
        derived.attack.seed =
            hashCombine(derived.attack.seed, spec.seed, kStreamAttack);
    }
    if (spec.tweakMachine)
        spec.tweakMachine(derived.config);
    return derived;
}

/** Fill the result fields shared by every strategy. */
void
finishResult(RunResult &res, Machine &machine)
{
    res.simSeconds = machine.seconds();
}

void
runExplicit(const RunSpec &spec, const AttackConfig &attack,
            Machine &machine, RunResult &res)
{
    Process &proc = machine.kernel().createProcess(/*uid=*/1000);
    machine.cpu().setProcess(proc);
    ExplicitHammer hammer(machine, attack);
    hammer.setup(spec.explicitBufferBytes);
    ExplicitHammerResult r =
        hammer.run(spec.nopPadding, attack.hammerBudgetSeconds);
    res.flipped = r.flipped;
    res.flips = r.flipped ? 1 : 0;
    res.attempts = static_cast<unsigned>(r.pairsHammered);
    res.report.machine = machine.config().name;
    res.report.flipped = r.flipped;
    res.report.timeToFirstFlipMinutes = r.secondsToFirstFlip / 60.0;
}

void
runImplicit(const AttackConfig &attack, Machine &machine, RunResult &res)
{
    PThammerAttack attackRun(machine, attack);
    attackRun.prepare();
    res.report = attackRun.prepReport();
    auto pair = attackRun.pairs().next();
    if (!pair)
        return;
    res.attempts = 1;
    HammerRunResult hr =
        attackRun.hammer().run(*pair, attack.hammerIterations);
    res.flips = hr.flips;
    res.flipped = hr.flips > 0;
    res.report.flipped = res.flipped;
    res.report.hammerMs = machine.seconds(hr.totalCycles) * 1e3;
}

void
runMultiHart(const RunSpec &spec, const AttackConfig &attack,
             Machine &machine, RunResult &res)
{
    PThammerAttack attackRun(machine, attack);
    attackRun.prepare();
    res.report = attackRun.prepReport();

    MultiHartHammer hammer(machine, attack, spec.interleave,
                           spec.interleaveSeed);
    const unsigned reserved = std::min(attack.victimHarts,
                                       machine.hartCount() - 1);
    const unsigned batchPairs = machine.hartCount() - reserved;

    // Attempt loop, like the single-hart end-to-end attack: each
    // attempt hammers one bank-synchronized batch of pairs — one per
    // aggressor hart — until a flip lands or the attempt/time budget
    // runs out.
    const double startSeconds = machine.seconds();
    MultiHartHammerResult r;
    Cycles hammered = 0;
    while (res.attempts < attack.maxAttempts &&
           machine.seconds() - startSeconds <
               attack.hammerBudgetSeconds) {
        std::vector<HammerPair> pairs =
            hammer.selectPairs(attackRun.pairs(), batchPairs);
        if (pairs.empty())
            break;
        r = hammer.run(pairs, attack.hammerIterations);
        hammered += r.totalCycles;
        res.attempts += r.aggressors;
        res.flips += r.flips;
        if (r.flips > 0)
            break;
    }
    res.flipped = res.flips > 0;
    res.report.flipped = res.flipped;
    res.report.hammerMs = machine.seconds(hammered) * 1e3;
    res.metrics.emplace_back("aggressorHarts", r.aggressors);
    res.metrics.emplace_back("victimHarts", r.victims);
    res.metrics.emplace_back("meanRoundCycles", r.meanRoundCycles);
    res.metrics.emplace_back("stackedActsPerWindow",
                             r.stackedActsPerWindow);
    res.metrics.emplace_back("victimMeanLatency", r.victimMeanLatency);
}

void
runPthammer(const AttackConfig &attack, Machine &machine, RunResult &res)
{
    PThammerAttack attackRun(machine, attack);
    attackRun.prepare();
    res.report = attackRun.run();
    res.flipped = res.report.flipped;
    res.escalated = res.report.escalated;
    res.flips = res.report.flipsObserved;
    res.attempts = res.report.attempts;
    res.flipsUntilEscalation = res.report.flipsUntilEscalation;
    res.exploitPath = res.report.exploitPath;
}

} // namespace

std::string
machinePresetName(MachinePreset preset)
{
    switch (preset) {
    case MachinePreset::LenovoT420: return "Lenovo T420";
    case MachinePreset::LenovoX230: return "Lenovo X230";
    case MachinePreset::DellE6420: return "Dell E6420";
    case MachinePreset::TestSmall: return "test-small";
    }
    return "unknown";
}

const std::array<MachinePreset, 3> &
paperPresets()
{
    static const std::array<MachinePreset, 3> presets = {
        MachinePreset::LenovoT420, MachinePreset::LenovoX230,
        MachinePreset::DellE6420};
    return presets;
}

std::string
hammerStrategyName(HammerStrategy strategy)
{
    switch (strategy) {
    case HammerStrategy::Explicit: return "explicit";
    case HammerStrategy::Implicit: return "implicit";
    case HammerStrategy::PThammer: return "pthammer";
    case HammerStrategy::MultiHart: return "multihart";
    }
    return "unknown";
}

MachineConfig
makeMachineConfig(MachinePreset preset)
{
    switch (preset) {
    case MachinePreset::LenovoT420: return MachineConfig::lenovoT420();
    case MachinePreset::LenovoX230: return MachineConfig::lenovoX230();
    case MachinePreset::DellE6420: return MachineConfig::dellE6420();
    case MachinePreset::TestSmall: return MachineConfig::testSmall();
    }
    return MachineConfig{};
}

std::size_t
Campaign::add(RunSpec spec)
{
    specs_.push_back(std::move(spec));
    return specs_.size() - 1;
}

void
Campaign::addSeedSweep(const RunSpec &base, std::uint64_t seedBase,
                       unsigned count)
{
    for (unsigned i = 0; i < count; ++i) {
        RunSpec spec = base;
        spec.seed = seedBase + i;
        spec.label = base.label + strfmt("/seed%u", i);
        add(std::move(spec));
    }
}

void
Campaign::addAttackSeedSweep(const RunSpec &base, std::uint64_t seedBase,
                             unsigned count)
{
    for (unsigned i = 0; i < count; ++i) {
        RunSpec spec = base;
        spec.seed = seedBase + i;
        spec.seedScope = SeedScope::AttackOnly;
        spec.label = base.label + strfmt("/seed%u", i);
        add(std::move(spec));
    }
}

RunResult
specResultShell(const RunSpec &spec, std::size_t index)
{
    RunResult res;
    res.index = index;
    res.label = spec.label;
    res.seed = spec.seed;
    res.machine = machinePresetName(spec.preset);
    res.defense = defenseKindName(spec.defense);
    res.strategy = hammerStrategyName(spec.strategy);
    res.dramModel = flipModelKindName(spec.dramModel);
    return res;
}

RunResult
Campaign::runOne(const RunSpec &spec, std::size_t index,
                 const MachineSnapshot *snapshot)
{
    RunResult res = specResultShell(spec, index);

    auto wallStart = std::chrono::steady_clock::now();
    try {
        DerivedRun derived = deriveRun(spec);
        const AttackConfig &attack = derived.attack;

        std::unique_ptr<Machine> forked;
        if (snapshot) {
            pth_assert(snapshot->machine().config() == derived.config,
                       "snapshot built from a different machine"
                       " configuration than the spec derives");
            forked = snapshot->instantiate();
        } else {
            forked = std::make_unique<Machine>(derived.config);
        }
        Machine &machine = *forked;
        res.machine = derived.config.name;

        if (spec.body) {
            spec.body(machine, attack, res);
        } else {
            switch (spec.strategy) {
            case HammerStrategy::Explicit:
                runExplicit(spec, attack, machine, res);
                break;
            case HammerStrategy::Implicit:
                runImplicit(attack, machine, res);
                break;
            case HammerStrategy::PThammer:
                runPthammer(attack, machine, res);
                break;
            case HammerStrategy::MultiHart:
                runMultiHart(spec, attack, machine, res);
                break;
            }
        }
        finishResult(res, machine);
    } catch (const std::exception &e) {
        res.ok = false;
        res.error = e.what();
    } catch (...) {
        res.ok = false;
        res.error = "unknown exception";
    }
    res.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wallStart)
            .count();
    return res;
}

std::vector<int>
Campaign::sharePlan(bool reuseMachines,
                    std::vector<MachineConfig> *configsOut) const
{
    const std::size_t n = specs_.size();
    std::vector<int> groups(n, -1);
    if (!reuseMachines) {
        if (configsOut)
            configsOut->clear();
        return groups;
    }

    // A derivation that throws (a bad tweakMachine hook) must not
    // abort the plan: the spec just cold-constructs, and runOne
    // surfaces the error in that run's result as always.
    std::vector<MachineConfig> configs(n);
    std::vector<char> derivable(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        try {
            configs[i] = deriveRun(specs_[i]).config;
            derivable[i] = 1;
        } catch (...) {
        }
    }

    // Union by config equality: owner[i] is the first index with run
    // i's config. Quadratic in distinct configs, fine at sweep sizes.
    std::vector<std::size_t> owner(n);
    std::vector<std::size_t> members(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        owner[i] = i;
        if (derivable[i]) {
            for (std::size_t j = 0; j < i; ++j) {
                if (owner[j] == j && derivable[j] &&
                    configs[j] == configs[i]) {
                    owner[i] = j;
                    break;
                }
            }
        }
        ++members[owner[i]];
    }

    // A group of one cold-constructs: forking a machine used once is
    // a deep copy with nothing to amortize it over.
    std::vector<int> ids(n, -1);
    int next = 0;
    for (std::size_t i = 0; i < n; ++i)
        if (owner[i] == i && members[i] >= 2)
            ids[i] = next++;
    for (std::size_t i = 0; i < n; ++i)
        groups[i] = ids[owner[i]];

    if (configsOut)
        *configsOut = std::move(configs);
    return groups;
}

std::vector<std::uint64_t>
Campaign::specKeys(const CampaignOptions &options) const
{
    const std::vector<int> groups = sharePlan(options.reuseMachines);
    std::vector<std::uint64_t> keys(specs_.size());
    for (std::size_t i = 0; i < specs_.size(); ++i)
        keys[i] = specKey(specs_[i], /*sharedMachine=*/groups[i] >= 0);
    return keys;
}

std::vector<RunResult>
Campaign::run(const CampaignOptions &options) const
{
    const std::size_t n = specs_.size();
    std::vector<RunResult> results(n);
    std::vector<char> cached(n, 0);

    // Snapshot sharing: runs resolving to the same MachineConfig fork
    // one warm machine, built under the slot mutex by whichever run
    // of the group executes first. A mutex-guarded lazy init rather
    // than std::call_once: the thread-safety analysis cannot see
    // through once_flag (snap would be read unprovably-unlocked), and
    // the semantics are identical — racing workers serialize, a build
    // that throws leaves snap empty so the next group member retries.
    // Once built, the snapshot is immutable; handing the raw pointer
    // out of the lock is safe because run() outlives the pool.
    std::vector<MachineConfig> derivedConfigs;
    const std::vector<int> groups =
        sharePlan(options.reuseMachines, &derivedConfigs);
    struct SnapshotSlot
    {
        Mutex mtx;
        std::unique_ptr<MachineSnapshot> snap PTH_GUARDED_BY(mtx);
    };
    int nGroups = 0;
    for (int g : groups)
        nGroups = std::max(nGroups, g + 1);
    std::vector<std::unique_ptr<SnapshotSlot>> slots;
    slots.reserve(static_cast<std::size_t>(nGroups));
    for (int g = 0; g < nGroups; ++g)
        slots.push_back(std::make_unique<SnapshotSlot>());
    auto snapshotFor = [&groups, &slots,
                        &derivedConfigs](std::size_t i)
        -> const MachineSnapshot * {
        const int group = groups[i];
        if (group < 0)
            return nullptr;
        SnapshotSlot &slot = *slots[static_cast<std::size_t>(group)];
        MutexLock lock(slot.mtx);
        if (!slot.snap)
            slot.snap = std::make_unique<MachineSnapshot>(
                std::make_unique<Machine>(derivedConfigs[i]));
        return slot.snap.get();
    };

    // Shard slicing: this process owns only its residue class; other
    // runs are journal-served or marked "not executed".
    const unsigned shardCount = std::max(1u, options.shardCount);
    const unsigned shardIndex = options.shardIndex % shardCount;
    auto owned = [shardCount, shardIndex](std::size_t i) {
        return shardCount == 1 || i % shardCount == shardIndex;
    };

    // Checkpointing: load completed runs from the journal (resume)
    // and open it for appending the rest. Only an ok result whose
    // stored spec key matches the spec at the same index is reused;
    // anything else — corrupt line, edited spec, failed run — is
    // simply executed again.
    std::unique_ptr<ResultStore> store;
    std::vector<std::uint64_t> keys;
    if (!options.journalPath.empty()) {
        keys.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            keys[i] = specKey(specs_[i],
                              /*sharedMachine=*/groups[i] >= 0);
        if (options.resume) {
            ResultStore::LoadStats loaded;
            auto done = ResultStore::load(options.journalPath,
                                          &loaded);
            if (loaded.corruptLines)
                std::fprintf(stderr,
                             "warning: skipped %zu corrupt line(s) in"
                             " journal %s (truncated by a kill?);"
                             " their runs will re-execute\n",
                             loaded.corruptLines,
                             options.journalPath.c_str());
            for (auto &item : done) {
                const std::size_t index = item.first;
                ResultStore::Entry &entry = item.second;
                if (index < n && entry.key == keys[index] &&
                    entry.result.ok) {
                    results[index] = std::move(entry.result);
                    cached[index] = 1;
                }
            }
        }
        store = std::make_unique<ResultStore>(options.journalPath,
                                              /*truncate=*/
                                              !options.resume);
    }

    // A run outside this shard's slice that the journal cannot serve:
    // visibly unfinished rather than silently zero-valued.
    auto notExecuted = [this, shardCount](std::size_t i) {
        RunResult res = specResultShell(specs_[i], i);
        res.ok = false;
        res.error = strfmt(
            "not executed: run %zu belongs to shard %zu of %u",
            i, i % shardCount, shardCount);
        return res;
    };

    // Workers journal their own results the moment a run finishes,
    // so the checkpoint granularity is one run even under a pool.
    auto executeOne = [this, &store, &keys,
                       &snapshotFor](std::size_t i) {
        RunResult result = runOne(specs_[i], i, snapshotFor(i));
        if (store)
            store->record(result, keys[i]);
        return result;
    };

    if (options.threads == 1) {
        for (std::size_t i = 0; i < n; ++i) {
            if (!cached[i])
                results[i] = owned(i) ? executeOne(i) : notExecuted(i);
            if (options.rethrow && owned(i) && !results[i].ok)
                throw std::runtime_error(results[i].error);
        }
        return results;
    }

    ThreadPool pool(options.threads);
    std::vector<std::future<RunResult>> futures(n);
    for (std::size_t i = 0; i < n; ++i)
        if (!cached[i] && owned(i))
            futures[i] =
                pool.submit([&executeOne, i] { return executeOne(i); });
    // Joining in submission order makes completion order irrelevant.
    for (std::size_t i = 0; i < n; ++i) {
        if (!cached[i])
            results[i] =
                owned(i) ? futures[i].get() : notExecuted(i);
        if (options.rethrow && owned(i) && !results[i].ok)
            throw std::runtime_error(results[i].error);
    }
    return results;
}

CampaignAggregate
Campaign::aggregate(const std::vector<RunResult> &results)
{
    CampaignAggregate agg;
    for (const RunResult &r : results)
        agg.add(r);
    return agg;
}

std::string
Campaign::toJson(const std::vector<RunResult> &results)
{
    std::ostringstream out;
    out << "{\n  \"runs\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        out << "    {"
            << "\"index\": " << r.index
            << ", \"label\": \"" << jsonEscape(r.label) << '"'
            << ", \"machine\": \"" << jsonEscape(r.machine) << '"'
            << ", \"defense\": \"" << jsonEscape(r.defense) << '"'
            << ", \"strategy\": \"" << jsonEscape(r.strategy) << '"'
            << ", \"seed\": " << r.seed
            << ", \"ok\": " << (r.ok ? "true" : "false");
        if (!r.ok)
            out << ", \"error\": \"" << jsonEscape(r.error) << '"';
        out << ", \"flipped\": " << (r.flipped ? "true" : "false")
            << ", \"escalated\": " << (r.escalated ? "true" : "false")
            << ", \"flips\": " << r.flips
            << ", \"attempts\": " << r.attempts
            << ", \"exploit_path\": \"" << jsonEscape(r.exploitPath)
            << '"'
            << ", \"sim_seconds\": "
            << strfmt("%.9g", r.simSeconds).c_str()
            << ", \"time_to_flip_minutes\": "
            << strfmt("%.9g", r.report.timeToFirstFlipMinutes).c_str();
        if (!r.metrics.empty()) {
            out << ", \"metrics\": {";
            for (std::size_t k = 0; k < r.metrics.size(); ++k)
                out << (k ? ", " : "") << '"'
                    << jsonEscape(r.metrics[k].first)
                    << "\": " << strfmt("%.9g", r.metrics[k].second).c_str();
            out << '}';
        }
        out << '}' << (i + 1 < results.size() ? "," : "") << '\n';
    }
    CampaignAggregate agg = aggregate(results);
    out << "  ],\n  \"aggregate\": {"
        << "\"runs\": " << agg.runs
        << ", \"failed_runs\": " << agg.failedRuns
        << ", \"flipped_runs\": " << agg.flippedRuns
        << ", \"escalated_runs\": " << agg.escalatedRuns
        << ", \"total_flips\": " << agg.totalFlips
        << ", \"total_attempts\": " << agg.totalAttempts
        << ", \"mean_sim_seconds\": "
        << strfmt("%.9g", agg.simSeconds.mean()).c_str()
        << ", \"mean_time_to_flip_minutes\": "
        << strfmt("%.9g", agg.timeToFlipMinutes.mean()).c_str()
        << ", \"fingerprint\": \"" << strfmt("%016llx",
               static_cast<unsigned long long>(agg.fingerprint())).c_str()
        << "\"}\n}\n";
    return out.str();
}

Table
Campaign::summaryTable(const std::vector<RunResult> &results)
{
    Table table({"Run", "Machine", "Defense", "Strategy", "Seed",
                 "Flips", "Escalated", "Time to flip"});
    for (const RunResult &r : results) {
        if (!r.ok) {
            table.addRow({r.label, r.machine, r.defense, r.strategy,
                          strfmt("%llu",
                                 static_cast<unsigned long long>(r.seed)),
                          "ERROR", "-", r.error});
            continue;
        }
        table.addRow(
            {r.label, r.machine, r.defense, r.strategy,
             strfmt("%llu", static_cast<unsigned long long>(r.seed)),
             strfmt("%llu", static_cast<unsigned long long>(r.flips)),
             r.escalated ? "YES" : "no",
             r.flipped
                 ? strfmt("%.1f m", r.report.timeToFirstFlipMinutes)
                 : "none"});
    }
    return table;
}

} // namespace pth
