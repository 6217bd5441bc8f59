/**
 * @file
 * Result types for the campaign runner: the per-run record every
 * worker fills in, and the deterministic aggregate folded over all
 * runs in index order.
 *
 * Everything that feeds the aggregate or the JSON report is simulated
 * state, derived only from the run's configuration and seed — host
 * wall-clock lives in a separate field that reports exclude — so a
 * campaign's output is bit-identical whether it ran on one worker or
 * eight.
 *
 * Every field of RunResult (and its embedded AttackReport) also
 * round-trips exactly through the result-store journal (see
 * result_store.hh); adding a field here means adding it to the
 * journal serialization, or resumed campaigns will drop it.
 */

#ifndef PTH_HARNESS_CAMPAIGN_RESULT_HH
#define PTH_HARNESS_CAMPAIGN_RESULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "attack/pthammer.hh"
#include "common/random.hh"
#include "common/stats.hh"

namespace pth
{

/** What one campaign run produced. */
struct RunResult
{
    std::size_t index = 0;      //!< position in the campaign
    std::string label;          //!< spec label (sweep point name)
    std::string machine;        //!< machine preset name
    std::string defense;        //!< defense policy name
    std::string strategy;       //!< hammer strategy name

    /**
     * DRAM flip-model name ("ddr3", "trr", ...), the trace of
     * RunSpec::dramModel that journal_index filters and groups on.
     * Journals and reports (toJson) write it right after the
     * strategy. Empty, and then written by neither, when the result
     * came from an artifact that predates the field ("unrecorded").
     */
    std::string dramModel;

    std::uint64_t seed = 0;     //!< run seed

    bool ok = true;             //!< run completed without throwing
    std::string error;          //!< exception text when !ok

    bool flipped = false;       //!< at least one bit flip observed
    bool escalated = false;     //!< privilege escalation achieved
    std::uint64_t flips = 0;    //!< bit flips observed
    unsigned attempts = 0;      //!< hammer attempts / pairs hammered
    unsigned flipsUntilEscalation = 0;
    std::string exploitPath = "none";
    double simSeconds = 0;      //!< simulated machine-seconds consumed

    /** Named metrics a custom run body records (ablation variants,
     * sweep measurements); serialized to JSON in insertion order. */
    std::vector<std::pair<std::string, double>> metrics;

    /** Full phase timings (populated by the PThammer strategy). */
    AttackReport report;

    /** Host wall-clock seconds; excluded from aggregates and JSON. */
    double wallSeconds = 0;
};

/** Deterministic fold over a campaign's runs, in index order. */
struct CampaignAggregate
{
    std::uint64_t runs = 0;
    std::uint64_t failedRuns = 0;
    std::uint64_t flippedRuns = 0;
    std::uint64_t escalatedRuns = 0;
    std::uint64_t totalFlips = 0;
    std::uint64_t totalAttempts = 0;

    RunningStat simSeconds;             //!< per-run simulated time
    RunningStat timeToFlipMinutes;      //!< over runs that flipped
    RunningStat flipsPerRun;            //!< over all completed runs

    /** Fold one run in. */
    void
    add(const RunResult &r)
    {
        ++runs;
        if (!r.ok) {
            ++failedRuns;
            return;
        }
        flippedRuns += r.flipped;
        escalatedRuns += r.escalated;
        totalFlips += r.flips;
        totalAttempts += r.attempts;
        simSeconds.sample(r.simSeconds);
        flipsPerRun.sample(static_cast<double>(r.flips));
        if (r.flipped)
            timeToFlipMinutes.sample(r.report.timeToFirstFlipMinutes);
    }

    /**
     * Order-sensitive 64-bit digest of the integer aggregate state;
     * the determinism tests compare serial vs. parallel campaigns
     * through this.
     */
    std::uint64_t
    fingerprint() const
    {
        std::uint64_t h = hashCombine(0x9ca3, runs, failedRuns);
        h = hashCombine(h, flippedRuns, escalatedRuns);
        h = hashCombine(h, totalFlips, totalAttempts);
        h = hashCombine(h, simSeconds.count(),
                        timeToFlipMinutes.count());
        return h;
    }
};

} // namespace pth

#endif // PTH_HARNESS_CAMPAIGN_RESULT_HH
