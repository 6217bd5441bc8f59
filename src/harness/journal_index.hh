/**
 * @file
 * Queryable index over stored campaign results — the read side of the
 * "millions of runs" story. A JournalIndex ingests one or many
 * result-store journals (and campaign --json reports; the loader
 * sniffs), folds them with the same last-wins-by-run-index semantics
 * as ResultStore::merge, and answers the questions flat JSONL cannot:
 *
 *  - filter by spec axis: label / machine preset / defense / hammer
 *    strategy / seed / DRAM flip model (AND of "axis=value" filters);
 *  - group-by aggregation: fold any selection into per-group
 *    CampaignAggregates, deterministically ordered;
 *  - two-artifact diff: the regression comparison engine behind
 *    `campaign compare`, the one definition of "regression".
 *
 * Runs are plain RunResults: journal lines are read by
 * ResultStore::load, report runs are parsed into the fields a report
 * carries. Corrupt journal lines are tolerated exactly like
 * everywhere else in the harness — skipped, counted in LoadStats,
 * surfaced by callers — so a torn shard journal can be queried
 * without ceremony but never silently shrinks an answer.
 */

#ifndef PTH_HARNESS_JOURNAL_INDEX_HH
#define PTH_HARNESS_JOURNAL_INDEX_HH

#include <map>
#include <string>
#include <vector>

#include "harness/result_store.hh"

namespace pth
{

class Table;

/** The spec axes an indexed run can be filtered or grouped by. */
enum class RunAxis
{
    Label,
    Machine,
    Defense,
    Strategy,
    Seed,
    DramModel,
};

/** Canonical CLI name of an axis ("label", "machine", ...). */
const char *runAxisName(RunAxis axis);

/**
 * Parse an axis name: the canonical names plus the aliases "preset"
 * (machine) and "dram-model"/"dram_model"/"model" (dram model).
 * Returns false without touching out when the name is unknown.
 */
bool parseRunAxis(const std::string &text, RunAxis &out);

/** A run's value on an axis, as the string filters match against
 * (seed in decimal; an empty dramModel, from artifacts that predate
 * the field, renders as "unrecorded"). */
std::string runAxisValue(const RunResult &run, RunAxis axis);

/** An indexed set of runs from one or many stored artifacts. */
class JournalIndex
{
  public:
    /** What loading saw; corrupt lines are the visible trace of torn
     * shard journals and must be surfaced by query tools. */
    struct LoadStats
    {
        unsigned journals = 0;      //!< JSONL artifacts ingested
        unsigned reports = 0;       //!< campaign JSON reports ingested
        std::size_t entries = 0;    //!< run records read (pre-dedup)
        std::size_t superseded = 0; //!< duplicate indices overwritten
        std::size_t corruptLines = 0;
    };

    /**
     * Ingest either stored artifact: a campaign JSON report (object
     * with "runs") or a journal. Later entries supersede earlier ones
     * with the same run index — within an artifact and across
     * artifacts, in ingestion order — matching ResultStore::merge,
     * so indexing shard journals answers like querying their merge.
     * On failure (unreadable, no run in it, or a report run whose
     * label, index, seed, flips or attempts does not parse) returns
     * false and, when error is non-null, says why, indexing nothing
     * from a failed report; a journal's corrupt lines are counted in
     * stats() either way.
     */
    bool addArtifact(const std::string &path,
                     std::string *error = nullptr);

    const LoadStats &stats() const { return stats_; }
    bool empty() const { return byIndex_.empty(); }
    std::size_t size() const { return byIndex_.size(); }

    /** Every indexed entry by run index; report runs carry key 0. */
    const std::map<std::size_t, ResultStore::Entry> &
    entries() const
    {
        return byIndex_;
    }

    /** One "axis=value" selection term. */
    struct Filter
    {
        RunAxis axis = RunAxis::Label;
        std::string value;
    };

    /**
     * Parse "axis=value" (e.g. "defense=none", "seed=7"). Returns
     * false with a message in *error (when non-null) on an unknown
     * axis or missing '='.
     */
    static bool parseFilter(const std::string &text, Filter &out,
                            std::string *error = nullptr);

    /** Runs matching every filter (AND), ascending run index.
     * Pointers are owned by the index and valid until the next add. */
    std::vector<const RunResult *>
    select(const std::vector<Filter> &filters) const;

    /** One group of a group-by: the axis value and the
     * CampaignAggregate fold over the group's runs. */
    struct Group
    {
        std::string value;
        CampaignAggregate agg;
    };

    /**
     * Fold runs into per-group aggregates on an axis. Groups are
     * ordered deterministically: numerically for Seed, else
     * lexicographically.
     */
    static std::vector<Group>
    groupBy(const std::vector<const RunResult *> &runs, RunAxis axis);

    /** Render a group-by as a summary table. */
    static Table groupTable(const std::vector<Group> &groups,
                            RunAxis axis);

    /** Render a selection as a one-row-per-run table. */
    static Table runTable(const std::vector<const RunResult *> &runs);

  private:
    /** Fold one entry in (last-wins by index). */
    void insert(ResultStore::Entry entry);

    std::map<std::size_t, ResultStore::Entry> byIndex_;
    LoadStats stats_;
};

/**
 * Equality at the JSON report's precision: reports render doubles
 * with %.9g while journals keep all 17 digits, so the same campaign
 * read from a journal and from its report differs below ~1e-9
 * relative. The diff treats that as equal rather than flagging
 * phantom deltas.
 */
bool sameReportValue(double a, double b);

/** Knobs of the two-artifact diff. */
struct RunDiffOptions
{
    /** Simulated-seconds growth tolerated before a run counts as
     * regressed, in percent. */
    double tolerancePct = 10.0;
};

/** What happened to one matched run between two artifacts. */
enum class RunDeltaStatus
{
    Unchanged,
    Changed,     //!< differs, but no regression criterion fired
    Regressed,
    Added,       //!< only in the current artifact
    Removed,     //!< only in the baseline
};

/** One row of the diff. */
struct RunDelta
{
    /** Match name: the label, disambiguated with "#<index>" when the
     * label repeats in either artifact. */
    std::string name;
    const RunResult *base = nullptr;     //!< null when Added
    const RunResult *current = nullptr;  //!< null when Removed
    RunDeltaStatus status = RunDeltaStatus::Unchanged;
    std::string detail;                  //!< "now fails", "fewer flips", ...
};

/** The whole comparison, rows plus the counters the summary and the
 * exit status are built from. */
struct RunDiff
{
    std::vector<RunDelta> deltas; //!< baseline rows (by name), then Added
    unsigned regressions = 0;
    unsigned changed = 0;
    unsigned unchanged = 0;
    unsigned added = 0;
    unsigned removed = 0;
};

/**
 * Compare two run sets — the regression engine behind
 * `campaign compare`. A run REGRESSES when, versus the baseline, it
 * stops completing, stops flipping, stops escalating, loses flips, or
 * its simulated seconds grow beyond options.tolerancePct. Runs are
 * matched by label with "#<index>" disambiguation of duplicated
 * labels (both sides must disambiguate the same way, so duplication
 * on either side triggers it for both).
 */
RunDiff diffRuns(const std::vector<const RunResult *> &baseline,
                 const std::vector<const RunResult *> &current,
                 const RunDiffOptions &options = {});

/**
 * Render the diff as `campaign compare`'s delta table. Unchanged rows
 * are included only with showAll.
 */
Table diffTable(const RunDiff &diff, bool showAll);

} // namespace pth

#endif // PTH_HARNESS_JOURNAL_INDEX_HH
