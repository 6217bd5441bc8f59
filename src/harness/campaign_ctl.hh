/**
 * @file
 * Campaign orchestrator: run a manifest of sharded campaigns across a
 * bounded pool of worker subprocesses. This is the one process pool of
 * the harness, and `campaign ctl` is its one entry point: a bench on
 * its own runs in one process (--threads). A manifest of
 * heterogeneous campaigns (different bench binaries, args, shard
 * counts) saturates the machine without oversubscribing it.
 *
 * Every shard worker is `program --threads=1 args... --shard I/N
 * --journal J` (a --threads in args wins), every campaign's shard
 * journals merge (ResultStore::merge) into the campaign journal, and
 * the campaign's report is rendered by re-invoking the bench with the
 * merged journal — so the orchestrated report is byte-identical to a
 * serial `program args --json=...` run.
 *
 * Fault handling: each shard or render task is one subprocess
 * lineage.
 *  - a dead worker (nonzero exit, signal, failed exec) is respawned
 *    with the same journal up to kMaxRespawns times; the replacement
 *    resumes from the dead attempt's checkpoint. A hung worker is
 *    recovered by killing it: the respawn resumes it the same way;
 *  - a shard task that is still dying after that fails its campaign:
 *    its journal is still merged, so its checkpointed runs survive,
 *    but no report is rendered and the failure is surfaced (nonzero
 *    exit) instead of quietly shrinking the suite.
 *
 * The scheduler is deterministic where determinism is visible: tasks
 * are dispatched in manifest order, so the sequence of first-attempt
 * spawn log lines is the same for any pool width; only respawn lines
 * depend on timing.
 */

#ifndef PTH_HARNESS_CAMPAIGN_CTL_HH
#define PTH_HARNESS_CAMPAIGN_CTL_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "harness/result_store.hh"

namespace pth
{

/** One campaign of a manifest: a bench invocation plus its shard
 * count and artifact paths. */
struct ManifestCampaign
{
    std::string name;               //!< unique; names artifacts + logs
    std::string program;            //!< bench binary to exec
    std::vector<std::string> args;  //!< bench-specific knobs
    unsigned shards = 1;            //!< worker slice count

    /** Merged campaign journal (shard i checkpoints to journal +
     * ".shard<i>"), and the JSON report to render from it; CampaignCtl
     * requires both. */
    std::string journal;
    std::string report;
};

/** A parsed campaign manifest. */
struct Manifest
{
    std::vector<ManifestCampaign> campaigns;

    /**
     * Parse manifest JSON:
     *
     *   { "campaigns": [ { "name": "t1",
     *                      "program": "./bench/bench_table1_configs",
     *                      "args": ["--dram-model=trr"],
     *                      "shards": 3,
     *                      "journal": "out/t1.jsonl",   // optional
     *                      "report": "out/t1.json" },   // optional
     *                    ... ] }
     *
     * Validation is strict — unknown keys, missing/empty name or
     * program, zero shards and duplicate names are errors. Returns
     * false with a message in error.
     */
    static bool parse(const std::string &text, Manifest &out,
                      std::string &error);

    /** Read and parse a manifest file. */
    static bool load(const std::string &path, Manifest &out,
                     std::string &error);
};

/** Extra attempts a task's worker gets after it dies before the task
 * is given up. */
constexpr unsigned kMaxRespawns = 2;

/** Orchestrator knobs. */
struct CampaignCtlOptions
{
    /** Pool width: live worker subprocesses (0 = one per core). */
    unsigned workers = 2;

    /** Discard existing journals; rerun everything. */
    bool fresh = false;

    /** Fault injection: "name/shard" first attempts to SIGKILL right
     * after spawn — the deterministic worker-crash hook the CI smoke
     * and the tests drive respawn-with-resume through. */
    std::vector<std::pair<std::string, unsigned>> injectKills;

    /** Dispatch log sink (spawn/exit/respawn/merge lines); null
     * silences it. */
    std::ostream *log = nullptr;
};

/** What happened to one campaign of the manifest. */
struct CampaignOutcome
{
    std::string name;
    std::string report;         //!< rendered JSON report
    bool ok = false;            //!< shards + merge + render all good
    std::string error;          //!< first failure reason when !ok
    unsigned spawns = 0;        //!< worker attempts across shards
    unsigned deadShards = 0;    //!< shard tasks that died for good
    ResultStore::MergeStats mergeStats;
};

/** Runs a manifest through the bounded worker pool. */
class CampaignCtl
{
  public:
    CampaignCtl(Manifest manifest, CampaignCtlOptions options);
    ~CampaignCtl(); // out of line: Task is incomplete here

    /**
     * Dispatch every campaign's shards over the pool, merge and
     * render each campaign as its shards complete, and return the
     * number of failed campaigns (0 = whole manifest succeeded).
     * POSIX-only (fork/exec/waitpid), like the rest of the
     * simulator's host tooling.
     */
    unsigned run();

    /** Per-campaign outcomes, in manifest order (valid after run). */
    const std::vector<CampaignOutcome> &outcomes() const
    {
        return outcomes_;
    }

  private:
    struct Task;

    void logLine(const std::string &line) const;
    long launch(std::size_t taskId, bool fresh);
    bool startTask(std::size_t taskId);
    void finishCampaign(std::size_t campaignIdx);

    Manifest manifest_;
    CampaignCtlOptions options_;
    std::vector<CampaignOutcome> outcomes_;

    std::vector<Task> tasks_;
    std::vector<std::size_t> pending_;  //!< task ids awaiting a slot
    std::size_t nextPending_ = 0;
    std::vector<std::pair<long, std::size_t>> live_; //!< pid -> task
    std::vector<unsigned> shardsLeft_;  //!< per campaign, incl. render
};

} // namespace pth

#endif // PTH_HARNESS_CAMPAIGN_CTL_HH
