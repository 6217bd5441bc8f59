#include "harness/bench_cli.hh"

#include "common/parallel.hh"
#include "common/table.hh"
#include "dram/flip_model.hh"
#include "harness/campaign_ctl.hh"
#include "harness/result_store.hh"
#include "harness/scratch_dir.hh"
#include "harness/self_exe.hh"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace pth
{

namespace
{

void
usage(const char *prog, const char *summary)
{
    std::printf("%s — %s\n\n", prog, summary);
    std::printf(
        "usage: %s [--json[=PATH]] [--journal PATH] [--fresh]\n"
        "       %*s [--threads N] [--shard I/N] [--workers N]\n"
        "       %*s [--pool-algo A] [--pool-threads N]\n"
        "       %*s [--dram-model M] [--cold-machines]\n\n"
        "  --json[=PATH]   dump the raw campaign JSON report after\n"
        "                  the table (stdout, or clean to PATH)\n"
        "  --journal PATH  checkpoint completed runs to the JSONL\n"
        "                  journal at PATH; an existing journal is\n"
        "                  resumed (finished runs are skipped)\n"
        "  --fresh         with --journal: discard the journal and\n"
        "                  rerun everything\n"
        "  --threads N     worker threads (overrides PTH_THREADS;\n"
        "                  0 = all cores, 1 = serial)\n"
        "  --shard I/N     execute only runs with index %% N == I\n"
        "                  into this process's journal (requires\n"
        "                  --journal); merge the N shard journals\n"
        "                  with campaign merge, then rerun with the\n"
        "                  merged journal for the full report\n"
        "  --workers N     local multi-process dispatch: fork N\n"
        "                  shard workers of this binary, merge\n"
        "                  their journals, report from the merge\n"
        "                  (0 = one worker per core)\n"
        "  --pool-algo A   LLC pool-build algorithm where pools are\n"
        "                  built: single[-elimination] or\n"
        "                  group[-testing] (default)\n"
        "  --pool-threads N  extraction workers inside one pool\n"
        "                  build (1 = serial, 0 = all cores)\n"
        "  --dram-model M  DRAM flip model for every run: ddr3\n"
        "                  (default), trr (ddr4-trr), distance2\n"
        "                  (half-double) or ecc\n"
        "  --cold-machines construct every run's machine from scratch\n"
        "                  instead of forking runs that share a\n"
        "                  machine configuration from one warm\n"
        "                  snapshot (results are identical either\n"
        "                  way; this trades setup time for isolation)\n"
        "  --help          this text\n",
        prog, static_cast<int>(std::strlen(prog)), "",
        static_cast<int>(std::strlen(prog)), "",
        static_cast<int>(std::strlen(prog)), "");
}

} // namespace

bool
BenchCli::parseCount(std::string_view text, unsigned &out)
{
    const char *end = text.data() + text.size();
    unsigned count = 0;
    const auto [last, ec] = std::from_chars(text.data(), end, count);
    if (ec != std::errc() || last != end)
        return false;
    out = count;
    return true;
}

const char *
BenchCli::flagValue(int argc, char **argv, int &i, const char *flag)
{
    const std::size_t n = std::strlen(flag);
    if (!std::strncmp(argv[i], flag, n) && argv[i][n] == '=')
        return argv[i] + n + 1;
    if (std::strcmp(argv[i], flag) != 0)
        return nullptr;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
        return argv[++i];
    std::fprintf(stderr, "%s: missing value for '%s'\n", argv[0],
                 flag);
    std::exit(2);
}

unsigned
BenchCli::countOrExit(const std::string &prog, const char *what,
                      const char *text)
{
    unsigned count = 0;
    if (parseCount(text, count))
        return count;
    std::fprintf(stderr,
                 "%s: bad %s '%s' (need a whole non-negative"
                 " count)\n",
                 prog.c_str(), what, text);
    std::exit(2);
}

BenchCli
BenchCli::parse(int argc, char **argv, const char *summary,
                const std::vector<std::string> &passthrough)
{
    BenchCli cli;
    cli.program = argc > 0 ? argv[0] : "";
    // Resolved once before any workers exist; nothing writes the
    // environment concurrently.
    const char *env = std::getenv("PTH_THREADS"); // NOLINT(concurrency-mt-unsafe)
    cli.options.threads =
        env && *env ? countOrExit(cli.program, "PTH_THREADS", env) : 0;
    // Bench-specific flags first, then the sweep-shaping standard
    // flags as they parse — together they let a spawned shard worker
    // rebuild the identical campaign.
    cli.forwardArgs = passthrough;

    bool fresh = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
            usage(argv[0], summary);
            std::exit(0);
        }
        if (!std::strcmp(arg, "--json")) {
            cli.json = true;
            continue;
        }
        if (!std::strncmp(arg, "--json=", 7)) {
            cli.json = true;
            cli.jsonPath = arg + 7;
            continue;
        }
        if (!std::strcmp(arg, "--fresh")) {
            fresh = true;
            continue;
        }
        if (!std::strcmp(arg, "--cold-machines")) {
            cli.options.reuseMachines = false;
            // Forwarded so shard workers compute the same journal
            // spec keys (snapshot eligibility is folded into them).
            cli.forwardArgs.push_back("--cold-machines");
            continue;
        }
        if (const char *value =
                flagValue(argc, argv, i, "--journal")) {
            cli.options.journalPath = value;
            continue;
        }
        if (const char *value =
                flagValue(argc, argv, i, "--threads")) {
            cli.options.threads =
                countOrExit(cli.program, "--threads", value);
            cli.forwardArgs.push_back(std::string("--threads=") +
                                      value);
            continue;
        }
        if (const char *value =
                flagValue(argc, argv, i, "--shard")) {
            const char *slash = std::strchr(value, '/');
            unsigned index = 0;
            unsigned count = 0;
            if (!slash ||
                !parseCount(std::string_view(value, slash - value),
                            index) ||
                !parseCount(slash + 1, count) || index >= count) {
                std::fprintf(stderr,
                             "%s: bad --shard '%s' (use I/N with"
                             " 0 <= I < N)\n",
                             argv[0], value);
                std::exit(2);
            }
            cli.options.shardIndex = index;
            cli.options.shardCount = count;
            continue;
        }
        if (const char *value =
                flagValue(argc, argv, i, "--workers")) {
            cli.workers = countOrExit(cli.program, "--workers", value);
            continue;
        }
        if (const char *value =
                flagValue(argc, argv, i, "--pool-algo")) {
            if (!parsePoolBuildAlgorithm(value, cli.pool.algorithm)) {
                std::fprintf(stderr,
                             "%s: unknown pool algorithm '%s' (use"
                             " single[-elimination] or"
                             " group[-testing])\n",
                             argv[0], value);
                std::exit(2);
            }
            cli.forwardArgs.push_back(std::string("--pool-algo=") +
                                      value);
            continue;
        }
        if (const char *value =
                flagValue(argc, argv, i, "--pool-threads")) {
            cli.pool.threads =
                countOrExit(cli.program, "--pool-threads", value);
            cli.forwardArgs.push_back(
                std::string("--pool-threads=") + value);
            continue;
        }
        if (const char *value =
                flagValue(argc, argv, i, "--dram-model")) {
            if (!parseFlipModelKind(value, cli.dramModel)) {
                std::fprintf(stderr,
                             "%s: unknown DRAM model '%s' (use ddr3,"
                             " trr, distance2 or ecc)\n",
                             argv[0], value);
                std::exit(2);
            }
            cli.forwardArgs.push_back(
                std::string("--dram-model=") + value);
            continue;
        }
        std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                     arg);
        usage(argv[0], summary);
        std::exit(2);
    }
    cli.options.resume = !fresh;

    if (cli.options.shardCount > 1 &&
        cli.options.journalPath.empty()) {
        std::fprintf(stderr,
                     "%s: --shard requires --journal (the slice's"
                     " results live in the journal)\n",
                     argv[0]);
        std::exit(2);
    }
    if (cli.options.shardCount > 1 && cli.workers != 1) {
        std::fprintf(stderr,
                     "%s: --shard (manual dispatch) and --workers"
                     " (automatic dispatch) are mutually"
                     " exclusive\n",
                     argv[0]);
        std::exit(2);
    }
    return cli;
}

std::vector<RunResult>
BenchCli::runCampaign(const Campaign &campaign)
{
    // Worker mode (--shard I/N): execute the slice into this
    // process's journal and stop — the full report is the merged
    // journal's job. Exit status 0 means the slice completed; runs
    // that failed inside the simulation are recorded in the journal
    // (and re-surface from the merge), not in the exit code.
    if (options.shardCount > 1) {
        if (json)
            std::fprintf(stderr,
                         "warning: --json is ignored in --shard"
                         " worker mode; render the report from the"
                         " merged journal (--journal MERGED"
                         " --json=...)\n");
        const std::vector<RunResult> results = campaign.run(options);
        std::size_t owned = 0;
        std::size_t failed = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (i % options.shardCount != options.shardIndex)
                continue;
            ++owned;
            failed += !results[i].ok;
        }
        std::fprintf(stderr,
                     "shard %u/%u: %zu of %zu run(s), %zu failed,"
                     " journal %s\n",
                     options.shardIndex, options.shardCount, owned,
                     results.size(), failed,
                     options.journalPath.c_str());
        std::exit(0);
    }

    const unsigned workerCount = resolveWorkers(workers);
    if (workerCount == 1)
        return campaign.run(options);

    // Parent mode (--workers N): run the campaign as N shards of
    // this binary over a pool of N worker processes, then serve the
    // report from the merged journal. Without --journal the artifacts
    // live in a scratch directory the guard removes on every exit
    // path — success or exception — unless kept for inspection.
    std::string journal = options.journalPath;
    ScratchDirGuard scratch;
    if (journal.empty()) {
        scratch = ScratchDirGuard::create("/tmp/pth_workersXXXXXX");
        journal = scratch.path() + "/campaign.jsonl";
    }

    ManifestCampaign shards;
    shards.name = "shard";
    // execv does no PATH search; prefer the kernel's record of this
    // very binary over argv[0], which may be a bare name.
    shards.program = resolveSelfExe(program);
    shards.args = forwardArgs;
    shards.shards = workerCount;
    shards.journal = journal;
    CampaignCtlOptions ctlOptions;
    ctlOptions.workers = workerCount;
    ctlOptions.fresh = !options.resume;
    CampaignCtl ctl(Manifest{{shards}}, ctlOptions);
    ctl.run();
    const CampaignOutcome &outcome = ctl.outcomes()[0];
    workerDeaths = outcome.deadShards;
    if (!outcome.ok)
        std::fprintf(stderr, "--workers %u: %s\n", workerCount,
                     outcome.error.c_str());
    if (outcome.mergeStats.corruptLines)
        std::fprintf(stderr,
                     "warning: skipped %zu corrupt line(s) while"
                     " merging %u shard journal(s) into %s\n",
                     outcome.mergeStats.corruptLines, workerCount,
                     journal.c_str());

    // Serve the report from the merged journal. A run the merge
    // cannot account for belongs to a dead shard; surface that as
    // the run's failure instead of quietly re-executing (masking the
    // death) or shrinking the report.
    const std::vector<RunSpec> &specs = campaign.specs();
    // Validate against the keys the workers actually journal under —
    // they fold in the snapshot-sharing bit (Campaign::specKeys), so
    // raw specKey(spec) would reject every shared-machine entry.
    const std::vector<std::uint64_t> expectedKeys =
        campaign.specKeys(options);
    auto entries = ResultStore::load(journal);
    std::vector<RunResult> results(specs.size());
    bool missing = false;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto it = entries.find(i);
        if (it != entries.end() &&
            it->second.key == expectedKeys[i]) {
            results[i] = std::move(it->second.result);
            continue;
        }
        missing = true;
        RunResult &res = results[i];
        res = specResultShell(specs[i], i);
        res.ok = false;
        res.error = outcome.ok ? "no shard worker journaled this run"
                               : outcome.error;
    }

    if (scratch.active() && (workerDeaths || missing)) {
        std::fprintf(stderr,
                     "worker artifacts kept for inspection in %s\n",
                     scratch.path().c_str());
        scratch.keep();
    }
    // Otherwise the guard removes the scratch directory — worker
    // journals, logs and the merged journal — as it goes out of scope.
    return results;
}

unsigned
BenchCli::reportFailures(const std::vector<RunResult> &results)
{
    unsigned failures = 0;
    for (const RunResult &run : results) {
        if (run.ok)
            continue;
        ++failures;
        std::printf("run %s failed: %s\n", run.label.c_str(),
                    run.error.c_str());
    }
    return failures;
}

bool
BenchCli::staleMetrics(const RunResult &run, std::size_t expected)
{
    if (!run.ok || run.metrics.size() >= expected)
        return false;
    std::fprintf(stderr,
                 "run %s: journal entry has %zu metrics, this bench"
                 " expects %zu — stale journal (body changed?);"
                 " rerun with --fresh\n",
                 run.label.c_str(), run.metrics.size(), expected);
    return true;
}

bool
BenchCli::emitJson(const std::vector<RunResult> &results) const
{
    if (!json)
        return true;
    const std::string report = Campaign::toJson(results);
    if (jsonPath.empty()) {
        std::fputs(report.c_str(), stdout);
        return true;
    }
    std::ofstream out(jsonPath, std::ios::out | std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "cannot write JSON report to %s\n",
                     jsonPath.c_str());
        return false;
    }
    out << report;
    return true;
}

} // namespace pth
