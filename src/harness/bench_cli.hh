/**
 * @file
 * The command-line front end shared by every campaign-driven bench
 * binary, so the whole bench suite speaks one dialect:
 *
 *   --json[=PATH]   dump the raw campaign JSON report after the
 *                   summary table (stdout, or clean to PATH)
 *   --journal PATH  checkpoint completed runs to the JSONL journal
 *                   at PATH and resume from it when it exists
 *   --fresh         with --journal: discard the journal and rerun
 *                   everything
 *   --threads N     worker count (overrides PTH_THREADS; 0 = all
 *                   cores, 1 = serial)
 *   --shard I/N     execute only runs with index % N == I into this
 *                   process's journal (requires --journal) — the
 *                   worker protocol `campaign ctl` spawns, and the
 *                   manual recipe; merge the shard journals with
 *                   `campaign merge`
 *   --pool-algo A   LLC pool-build algorithm for benches that build
 *                   eviction pools: single[-elimination] or
 *                   group[-testing] (the default)
 *   --pool-threads N  extraction workers inside one pool build
 *                   (1 = serial, 0 = all cores; the pool is
 *                   byte-identical either way)
 *   --dram-model M  DRAM flip model for every run of the sweep:
 *                   ddr3 (the seeded default), trr (DDR4-style
 *                   target-row-refresh), distance2 (half-double) or
 *                   ecc (single-error-correcting DIMMs)
 *   --cold-machines disable machine snapshot sharing
 *                   (CampaignOptions::reuseMachines): every run
 *                   cold-constructs its machine; reports are
 *                   byte-identical either way
 *   --help          usage
 *
 * Defaults: threads from PTH_THREADS (all cores when unset or empty),
 * no journal, no JSON, no sharding. Counts (--threads, --pool-threads,
 * PTH_THREADS and both halves of --shard I/N) must be whole decimals
 * that fit an unsigned. parse() exits the process on --help (status
 * 0) and on unknown or invalid arguments (status 2), so benches stay
 * one-liners. A flag only one bench reads is that bench's own: it
 * parses it before parse() (bench_multicore_hammer's --tiny, --harts
 * and --interleave).
 *
 * Every bench runs its campaign through runCampaign() in one process;
 * `campaign ctl` is the one way to spread a campaign over worker
 * processes:
 *  - plain invocation: identical to campaign.run(options);
 *  - --shard I/N (worker mode): runs the slice, checkpoints it,
 *    prints a one-line summary and exits — the real report comes
 *    from the merged journal.
 */

#ifndef PTH_HARNESS_BENCH_CLI_HH
#define PTH_HARNESS_BENCH_CLI_HH

#include <string>
#include <vector>

#include "harness/campaign.hh"

namespace pth
{

/** Parsed bench command line. */
struct BenchCli
{
    /** Ready-to-use campaign options (threads, journal, resume,
     * shard slice). */
    CampaignOptions options;

    bool json = false;      //!< --json given
    std::string jsonPath;   //!< --json=PATH target; empty = stdout

    /** Pool-build knobs (--pool-algo / --pool-threads); benches that
     * build LLC eviction pools copy this into their AttackConfig. */
    PoolBuildOptions pool;

    /** DRAM flip model (--dram-model); benches copy this into every
     * RunSpec so the whole sweep runs the selected scenario. */
    FlipModelKind dramModel = FlipModelKind::Ddr3Seeded;

    /**
     * Parse the standard bench flags. summary is the one-line
     * description printed by --help. A bench removes its own flags
     * (e.g. bench_pool_build's --tiny) from argv before calling this.
     */
    static BenchCli parse(int argc, char **argv, const char *summary);

    /**
     * Value of "--flag VALUE" or "--flag=VALUE" at argv[i], advancing
     * i past a separate value; null when argv[i] is not the flag.
     * When it is the flag but the value is missing, exits the process
     * with status 2 and "<argv[0]>: missing value". A following token
     * that is itself a flag does not count as a value, so
     * "--journal --fresh" reports a missing value instead of creating
     * a journal named "--fresh".
     */
    static const char *flagValue(int argc, char **argv, int &i,
                                 const char *flag);

    /** A count read with parseWhole (a whole non-negative decimal
     * that fits an unsigned), or exit the process with status 2 and a
     * message naming `what`. */
    static unsigned countOrExit(const std::string &prog,
                                const char *what, const char *text);

    /**
     * Execute the campaign — see the file comment. Every bench calls
     * this instead of Campaign::run(options). In --shard worker mode
     * this does not return (the worker exits after checkpointing its
     * slice).
     */
    std::vector<RunResult> runCampaign(const Campaign &campaign) const;

    /**
     * Print "run X failed: ..." for every failed run and return the
     * failure count (the bench's exit status is nonzero when > 0 —
     * failure isolation: the sweep completes, the process still
     * reports the breakage).
     */
    static unsigned
    reportFailures(const std::vector<RunResult> &results);

    /**
     * Honor --json: render Campaign::toJson(results) to stdout or to
     * the --json=PATH file. Returns false (with a message on stderr)
     * when the file cannot be written.
     */
    bool emitJson(const std::vector<RunResult> &results) const;

    /**
     * True when an ok run carries fewer metrics than this bench's
     * body records — a resumed journal entry from an older body
     * shape (the spec key cannot see body edits). Prints a
     * "rerun with --fresh" warning so the dropped table row is
     * explained rather than silent.
     */
    static bool staleMetrics(const RunResult &run,
                             std::size_t expected);
};

} // namespace pth

#endif // PTH_HARNESS_BENCH_CLI_HH
