/**
 * @file
 * The experiment campaign runner: build a sweep of independent
 * simulations (machine preset x defense x hammer strategy x seed),
 * fan them out across host threads, and fold the results into a
 * deterministic aggregate, a JSON report and a summary table.
 *
 * Every run constructs its own Machine and seeds every stochastic
 * stream from the run's seed alone, so runs share no state and the
 * campaign's output is bit-identical serial vs. parallel. Results are
 * returned and aggregated in submission (index) order regardless of
 * worker completion order.
 *
 * With CampaignOptions::journalPath set, every completed run is also
 * checkpointed to an append-only JSONL journal (see result_store.hh);
 * a campaign that was killed mid-sweep resumes from the journal,
 * skips the runs it already finished, and — because results are
 * merged back in index order and the journal round-trips every
 * report-feeding field exactly — produces a byte-identical JSON
 * report to an uninterrupted run.
 */

#ifndef PTH_HARNESS_CAMPAIGN_HH
#define PTH_HARNESS_CAMPAIGN_HH

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "attack/attack_config.hh"
#include "cpu/interleaver.hh"
#include "cpu/machine_config.hh"
#include "harness/campaign_result.hh"

namespace pth
{

class Machine;
class MachineSnapshot;
class Table;

/** The three Table-I laptops plus the scaled-down test machine. */
enum class MachinePreset { LenovoT420, LenovoX230, DellE6420, TestSmall };

/**
 * Which stochastic streams a nonzero RunSpec::seed re-keys.
 *
 * AllStreams (default) re-keys the machine-side streams (weak-cell
 * placement, kernel boot noise, TLB replacement) and the attacker RNG,
 * so every run of a sweep boots a different world. AttackOnly re-keys
 * the attacker RNG alone: every run of the sweep derives the same
 * MachineConfig, which is what lets the campaign construct one warm
 * machine and fork it per run (CampaignOptions::reuseMachines).
 */
enum class SeedScope { AllStreams, AttackOnly };

/** Which hammering front end a run drives. */
enum class HammerStrategy
{
    Explicit,   //!< clflush-based double-sided baseline (Section II)
    Implicit,   //!< prepare + one implicit-hammer run on the first pair
    PThammer,   //!< the full end-to-end attack (prepare + run)
    MultiHart,  //!< prepare + interleaved hammering from every hart
};

/** Human-readable preset name (matches MachineConfig::name). */
std::string machinePresetName(MachinePreset preset);

/** The three evaluated Table-I machines, in the paper's order — the
 * sweep axis every per-machine bench iterates. */
const std::array<MachinePreset, 3> &paperPresets();

/** Human-readable strategy name. */
std::string hammerStrategyName(HammerStrategy strategy);

/** Build the MachineConfig for a preset. */
MachineConfig makeMachineConfig(MachinePreset preset);

struct RunSpec;

/**
 * RunResult shell carrying the identity fields derived from a spec
 * (index, label, seed, preset/defense/strategy names) — the one
 * place they are filled, shared by run execution and shard
 * placeholders.
 */
RunResult specResultShell(const RunSpec &spec, std::size_t index);

/** One point of a campaign sweep. */
struct RunSpec
{
    std::string label;                 //!< row label for reports
    MachinePreset preset = MachinePreset::TestSmall;
    DefenseKind defense = DefenseKind::None;
    HammerStrategy strategy = HammerStrategy::PThammer;

    /**
     * DRAM flip model the run's machine installs (applied on top of
     * the preset via MachineConfig::withDramModel, before
     * tweakMachine). Folded into the journal spec key, so results
     * from different models never collide on resume.
     */
    FlipModelKind dramModel = FlipModelKind::Ddr3Seeded;

    /**
     * Run seed. When nonzero, every stochastic stream of the run
     * (weak-cell placement, kernel boot noise, TLB replacement,
     * attacker RNG) is re-keyed from it with independent stream ids,
     * so two specs with the same seed replay identically and
     * different seeds decorrelate completely. Seed 0 keeps the
     * library's default seeds — the run replays exactly like the
     * stand-alone (un-swept) configuration.
     */
    std::uint64_t seed = 0;

    /**
     * Which streams the seed re-keys (see SeedScope). Folded into the
     * journal spec key only when non-default, so journals written
     * before attack-scoped sweeps existed stay valid.
     */
    SeedScope seedScope = SeedScope::AllStreams;

    /**
     * Harts the run's machine hosts (MachineConfig::harts). Folded
     * into the journal spec key only when non-default, so single-hart
     * journals written before multi-hart runs existed stay valid.
     */
    unsigned harts = 1;

    /**
     * How the multi-hart strategy merges the per-hart streams into
     * the global clock order, and the seed of the Seeded mode. Both
     * spec-key folded only when non-default, like harts.
     */
    InterleaveMode interleave = InterleaveMode::RoundRobin;
    std::uint64_t interleaveSeed = 0;

    AttackConfig attack;               //!< attacker-side knobs

    /** Explicit strategy only: NOPs per iteration and buffer size. */
    unsigned nopPadding = 0;
    std::uint64_t explicitBufferBytes = 64ull << 20;

    /**
     * Optional last-word hook over the machine configuration. May be
     * invoked more than once per run — config derivation is repeated
     * for snapshot-sharing detection — so it must be deterministic
     * and side-effect-free.
     */
    std::function<void(MachineConfig &)> tweakMachine;

    /**
     * Optional custom run body. When set it replaces the built-in
     * strategy dispatch: the campaign builds the seeded machine and
     * attack config, then hands control to the callable, which fills
     * the result (flips, metrics, ...). Used by experiment benches
     * whose measurement loop is not a stock attack run. Must depend
     * only on its arguments for the serial/parallel determinism
     * guarantee to hold.
     */
    std::function<void(Machine &, const AttackConfig &, RunResult &)>
        body;
};

/** How to execute a campaign. */
struct CampaignOptions
{
    /** Worker threads; 1 = serial in the calling thread, 0 = one per
     * hardware thread. */
    unsigned threads = 1;

    /**
     * When non-empty, checkpoint the campaign to the JSONL journal
     * at this path: every completed run is appended (and flushed) as
     * it finishes, so an interruption loses at most the runs still
     * in flight. See result_store.hh for the journal contract.
     */
    std::string journalPath;

    /**
     * With a journalPath: load the journal before running and skip
     * every run whose stored spec key matches the current spec at
     * the same index (failed runs are always re-executed). The
     * merged results are returned in index order as usual, so a
     * resumed campaign's aggregate/JSON/table output is
     * byte-identical to an uninterrupted run's. Set to false to
     * discard the journal and start fresh.
     */
    bool resume = true;

    /**
     * Shard slicing for multi-process (or multi-host) dispatch: with
     * shardCount > 1 this process executes only runs whose
     * index % shardCount == shardIndex. Results are still returned
     * for the full campaign in index order — runs outside the slice
     * are served from the journal when it holds them (the case after
     * shard journals were merged back; see result_store.hh and
     * `campaign merge`) and otherwise marked failed with a
     * "not executed" error, so a partial report is visibly partial.
     * Disjoint shards of the same campaign journal disjoint run sets,
     * which is what makes the merged, journal-served report
     * byte-identical to a single-process serial run. shardCount == 0
     * or 1 disables slicing.
     */
    unsigned shardIndex = 0;
    unsigned shardCount = 1;

    /**
     * Machine snapshot/fork: runs that resolve to the same derived
     * MachineConfig share one warm machine, built once before the
     * runs fan out and forked (deep-copied) by every run of the
     * group — instead of each run replaying boot. The fork is
     * byte-identical to cold construction (the Machine copy
     * contract), so reports do not change; only setup cost does.
     * Sharing needs a group of at least two runs, and eligibility is
     * a pure function of the spec list, so shard workers and the run
     * that renders their merged journal always agree on it (it is
     * folded into the journal spec keys — see Campaign::specKeys).
     * Disable to force cold construction for every run (bench_cli:
     * --cold-machines).
     */
    bool reuseMachines = true;
};

/** A set of runs executed together. */
class Campaign
{
  public:
    Campaign() = default;

    /** Append one run; returns its index. */
    std::size_t add(RunSpec spec);

    /**
     * Append count copies of base with seeds seedBase, seedBase+1, ...
     * and "/seed<N>" appended to the label — the standard way to turn
     * one configuration into a statistical sample.
     */
    void addSeedSweep(const RunSpec &base, std::uint64_t seedBase,
                      unsigned count);

    /**
     * addSeedSweep scoped to the attacker streams only
     * (SeedScope::AttackOnly): the machine replays identically across
     * the sweep, so with CampaignOptions::reuseMachines the campaign
     * constructs it once and forks it per run. Use when the sweep
     * varies the attacker, not the hardware sample.
     */
    void addAttackSeedSweep(const RunSpec &base, std::uint64_t seedBase,
                            unsigned count);

    /** Number of runs queued. */
    std::size_t size() const { return specs_.size(); }

    /** The queued specs. */
    const std::vector<RunSpec> &specs() const { return specs_; }

    /**
     * Execute every queued run and return results in index order:
     * one parallelMap (common/parallel.hh) over the runs, inline on
     * the caller at threads == 1. A run that throws is recorded in
     * its RunResult (ok = false) and the sweep continues. With
     * options.journalPath the campaign checkpoints each completed
     * run and, when resuming, only executes runs the journal does
     * not already hold.
     */
    std::vector<RunResult> run(const CampaignOptions &options = {}) const;

    /**
     * The journal spec keys run() records under the given options —
     * including the snapshot-sharing bit when a run forks a shared
     * machine, so a shared-machine entry's key differs from raw
     * specKey(spec).
     */
    std::vector<std::uint64_t>
    specKeys(const CampaignOptions &options = {}) const;

    /**
     * Execute a single spec (what each worker does). With a non-null
     * snapshot the run's machine is forked from it instead of
     * cold-constructed; the snapshot must have been built from the
     * spec's own derived MachineConfig (asserted).
     */
    static RunResult runOne(const RunSpec &spec, std::size_t index,
                            const MachineSnapshot *snapshot = nullptr);

    /** Fold results (in index order) into the aggregate. */
    static CampaignAggregate aggregate(
        const std::vector<RunResult> &results);

    /**
     * Deterministic JSON report: one object per run in index order
     * plus the aggregate. Host wall-clock is deliberately omitted.
     */
    static std::string toJson(const std::vector<RunResult> &results);

    /** One-row-per-run summary table. */
    static Table summaryTable(const std::vector<RunResult> &results);

  private:
    /**
     * Snapshot-sharing plan: groups[i] is the sharing-group id of run
     * i, or -1 when it cold-constructs (group of one, or sharing
     * disabled). A pure function of the spec list, so every process
     * of a sharded campaign computes the same plan. When configsOut
     * is non-null it receives each run's derived MachineConfig.
     */
    std::vector<int> sharePlan(
        bool reuseMachines,
        std::vector<MachineConfig> *configsOut = nullptr) const;

    std::vector<RunSpec> specs_;
};

} // namespace pth

#endif // PTH_HARNESS_CAMPAIGN_HH
