/**
 * @file
 * campaign: the operator CLI of the experiment workflow
 * (docs/CAMPAIGN.md), one binary with four subcommands — merge,
 * query, compare and ctl; `campaign SUBCOMMAND --help` prints each
 * one's arguments.
 *
 * query and compare read any mix of campaign JSON reports (bench
 * --json=...) and result-store journals (bench --journal ...)
 * through harness/journal_index, so they agree on what a run is.
 * Every subcommand exits 2 on usage errors, and a flag is never
 * another flag's value ("-o --fresh" is a missing value).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "common/parse.hh"
#include "common/table.hh"
#include "harness/bench_cli.hh"
#include "harness/campaign_ctl.hh"
#include "harness/journal_index.hh"
#include "harness/result_store.hh"

using namespace pth;

namespace
{

/** A count as an exit status, capped at 255. */
int
countStatus(std::size_t count)
{
    return count > 255 ? 255 : static_cast<int>(count);
}

bool
isHelp(const char *arg)
{
    return !std::strcmp(arg, "--help") || !std::strcmp(arg, "-h");
}

/** Print the usage to stderr; returns the usage-error status, 2. */
int
usageError(const char *usage)
{
    std::fputs(usage, stderr);
    return 2;
}

int
unknownArgument(const char *arg, const char *usage)
{
    std::fprintf(stderr, "unknown argument '%s'\n", arg);
    return usageError(usage);
}

/** Append one --filter AXIS=VALUE; exits 2 on a malformed filter. */
void
addFilterOrExit(const char *prog, const char *text,
                std::vector<JournalIndex::Filter> &filters)
{
    JournalIndex::Filter filter;
    std::string error;
    if (!JournalIndex::parseFilter(text, filter, &error)) {
        std::fprintf(stderr, "%s: %s\n", prog, error.c_str());
        std::exit(2);
    }
    filters.push_back(std::move(filter));
}

/**
 * Ingest one artifact into index. Says why on failure, and warns
 * about the artifact's corrupt journal lines (the torn writes of
 * killed workers) whether or not it loaded.
 */
bool
loadArtifact(const char *prog, const std::string &path,
             JournalIndex &index)
{
    const std::size_t corruptBefore = index.stats().corruptLines;
    std::string error;
    const bool ok = index.addArtifact(path, &error);
    if (!ok)
        std::fprintf(stderr, "%s: %s\n", prog, error.c_str());
    if (const std::size_t torn =
            index.stats().corruptLines - corruptBefore)
        std::fprintf(stderr,
                     "%s: warning: skipped %zu corrupt journal"
                     " line(s)\n",
                     path.c_str(), torn);
    return ok;
}

/**
 * --tolerance: a finite, non-negative decimal ("10", "2.5"). Only
 * digits and '.' may appear, so signs, exponents, hex, "inf" and
 * "nan" are rejected before strtod has to consume the whole text.
 */
bool
parseTolerance(const char *text, double &out)
{
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (text[std::strspn(text, "0123456789.")] != '\0' || end == text ||
        *end != '\0' || !std::isfinite(value))
        return false;
    out = value;
    return true;
}

const char *const kMergeUsage =
    "usage: campaign merge SHARD.jsonl... [-o MERGED.jsonl]\n"
    "  SHARD.jsonl...    shard journals, oldest first (on index\n"
    "                    collisions the last listed wins)\n"
    "  -o, --output PATH write the merged journal to PATH\n"
    "                    (default: stdout)\n";

/**
 * campaign merge: fold shard journals into one canonical journal, the
 * multi-host half of sharded dispatch. Semantics are
 * ResultStore::merge's: last-wins by run index in argument order,
 * corrupt lines skipped and counted, output re-serialized in
 * ascending index order — the bytes a single process would have
 * journaled. Exit status: 0 on success (corrupt lines and missing
 * inputs are warnings), 1 when the output cannot be written or no
 * input was readable.
 */
int
mergeMain(int argc, char **argv)
{
    std::vector<std::string> inputs;
    std::string outPath;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&](const char *flag) {
            return BenchCli::flagValue(argc, argv, i, flag);
        };
        if (const char *shortOut = value("-o")) {
            outPath = shortOut;
        } else if (const char *longOut = value("--output")) {
            outPath = longOut;
        } else if (arg[0] == '-' && arg[1] != '\0') {
            return unknownArgument(arg, kMergeUsage);
        } else {
            inputs.push_back(arg);
        }
    }
    if (inputs.empty())
        return usageError(kMergeUsage);

    // File output is staged and renamed into place only after the
    // merge proves it read something, so a typo'd invocation can
    // never truncate an existing merged journal to nothing.
    const bool toStdout = outPath.empty();
    const std::string staging = outPath + ".merging";
    ResultStore::MergeStats stats;
    std::string error;
    const bool merged =
        toStdout ? ResultStore::merge(inputs, std::cout, &stats)
                 : ResultStore::merge(inputs, staging, &stats,
                                      &error);
    if (!merged) {
        if (!toStdout) {
            std::fprintf(stderr, "%s\n", error.c_str());
            std::remove(staging.c_str());
        } else {
            std::fprintf(stderr, "short write to stdout\n");
        }
        return 1;
    }

    if (stats.missingInputs)
        std::fprintf(stderr,
                     "warning: %u input journal(s) missing (worker"
                     " died before its first checkpoint?)\n",
                     stats.missingInputs);
    if (stats.corruptLines)
        std::fprintf(stderr,
                     "warning: skipped %zu corrupt line(s) (torn"
                     " writes of killed workers)\n",
                     stats.corruptLines);
    std::fprintf(stderr,
                 "merged %zu run(s) from %u journal(s) (%zu"
                 " superseded duplicate(s))\n",
                 stats.entries, stats.inputs, stats.overwritten);

    if (stats.inputs == 0) {
        std::fprintf(stderr, "no readable input journal\n");
        if (!toStdout)
            std::remove(staging.c_str());
        return 1;
    }

    if (!toStdout &&
        std::rename(staging.c_str(), outPath.c_str()) != 0) {
        std::fprintf(stderr, "cannot move %s into place\n",
                     staging.c_str());
        std::remove(staging.c_str());
        return 1;
    }
    return 0;
}

const char *const kQueryUsage =
    "usage: campaign query ARTIFACT... [--filter AXIS=VALUE]...\n"
    "                      [--group-by AXIS]\n"
    "  ARTIFACT        campaign JSON report (--json=...) or\n"
    "                  result-store journal; several artifacts\n"
    "                  fold together last-wins, like campaign merge\n"
    "  --filter AXIS=VALUE  keep only matching runs (repeatable,"
    " ANDed);\n"
    "                  axes: label, machine (preset), defense,\n"
    "                  strategy, seed, dram-model\n"
    "  --group-by AXIS aggregate the selection per axis value\n";

/**
 * campaign query: load any mix of artifacts into one index (later
 * artifacts supersede earlier ones per run index, like merge), then
 * list the filtered runs or aggregate them per axis value.
 */
int
queryMain(int argc, char **argv)
{
    std::vector<std::string> paths;
    std::vector<JournalIndex::Filter> filters;
    std::optional<RunAxis> groupAxis;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&](const char *flag) {
            return BenchCli::flagValue(argc, argv, i, flag);
        };
        if (const char *v = value("--filter")) {
            addFilterOrExit(argv[0], v, filters);
        } else if (const char *axisArg = value("--group-by")) {
            RunAxis axis = RunAxis::Label;
            if (!parseRunAxis(axisArg, axis)) {
                std::fprintf(stderr,
                             "%s: unknown axis '%s' (use label,"
                             " machine, defense, strategy, seed or"
                             " dram-model)\n",
                             argv[0], axisArg);
                return 2;
            }
            groupAxis = axis;
        } else if (arg[0] == '-') {
            return unknownArgument(arg, kQueryUsage);
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty())
        return usageError(kQueryUsage);

    JournalIndex index;
    for (const std::string &path : paths)
        if (!loadArtifact(argv[0], path, index))
            return 2;

    const std::vector<const RunResult *> selection =
        index.select(filters);
    if (groupAxis) {
        JournalIndex::groupTable(
            JournalIndex::groupBy(selection, *groupAxis), *groupAxis)
            .print();
    } else {
        JournalIndex::runTable(selection).print();
    }
    const JournalIndex::LoadStats &stats = index.stats();
    std::printf("\n%zu run(s) selected of %zu indexed (%u journal(s),"
                " %u report(s), %zu superseded)\n",
                selection.size(), index.size(), stats.journals,
                stats.reports, stats.superseded);
    return 0;
}

const char *const kCompareUsage =
    "usage: campaign compare BASELINE CURRENT"
    " [--filter AXIS=VALUE]...\n"
    "                        [--all] [--tolerance PCT]\n"
    "  BASELINE/CURRENT  campaign JSON report (--json=...) or\n"
    "                    result-store journal (--journal ...)\n"
    "  --filter AXIS=VALUE  compare only matching runs (repeatable,\n"
    "                    ANDed; axes as for campaign query)\n"
    "  --all             also list unchanged runs\n"
    "  --tolerance PCT   simulated-seconds growth tolerated\n"
    "                    before a run counts as regressed"
    " (default 10)\n";

/**
 * campaign compare: diff two stored campaigns. Runs are matched by
 * label (index disambiguates repeats) and a run REGRESSES when it
 * stops completing, flipping or escalating, loses flips, or its
 * simulated seconds grow beyond --tolerance percent (diffRuns). The
 * exit status is the number of regressed runs, so the subcommand
 * drops straight into CI gates.
 */
int
compareMain(int argc, char **argv)
{
    std::vector<std::string> paths;
    std::vector<JournalIndex::Filter> filters;
    bool showAll = false;
    RunDiffOptions options;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&](const char *flag) {
            return BenchCli::flagValue(argc, argv, i, flag);
        };
        if (!std::strcmp(arg, "--all")) {
            showAll = true;
        } else if (const char *v = value("--filter")) {
            addFilterOrExit(argv[0], v, filters);
        } else if (const char *tolArg = value("--tolerance")) {
            if (!parseTolerance(tolArg, options.tolerancePct)) {
                std::fprintf(stderr,
                             "%s: bad --tolerance '%s' (need a finite"
                             " non-negative decimal)\n",
                             argv[0], tolArg);
                return 2;
            }
        } else if (arg[0] == '-') {
            return unknownArgument(arg, kCompareUsage);
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.size() != 2)
        return usageError(kCompareUsage);

    // One index per artifact: each side deduplicates internally
    // (last-wins by run index) but baseline and current never
    // supersede each other.
    JournalIndex baseline;
    JournalIndex current;
    if (!loadArtifact(argv[0], paths[0], baseline) ||
        !loadArtifact(argv[0], paths[1], current))
        return 2;

    const std::vector<const RunResult *> base = baseline.select(filters);
    const std::vector<const RunResult *> cur = current.select(filters);
    const RunDiff diff = diffRuns(base, cur, options);

    std::printf("== %s: %s -> %s ==\n", argv[0], paths[0].c_str(),
                paths[1].c_str());
    diffTable(diff, showAll).print();
    std::printf("\n%zu baseline runs, %zu current: %u unchanged,"
                " %u changed, %u regressed, %u added, %u removed"
                " (tolerance %.1f%% sim-time)\n",
                base.size(), cur.size(), diff.unchanged, diff.changed,
                diff.regressions, diff.added, diff.removed,
                options.tolerancePct);
    return countStatus(diff.regressions);
}

const char *const kCtlUsage =
    "usage: campaign ctl MANIFEST [--workers N] [--out DIR]\n"
    "                    [--fresh] [--inject-kill NAME/SHARD]"
    " [--quiet]\n"
    "  MANIFEST        JSON manifest: {\"campaigns\": [{\"name\","
    " \"program\", \"args\", \"shards\", ...}]}\n"
    "  --workers N     worker pool width (default 2; 0 = one per"
    " core)\n"
    "  --out DIR       directory for derived journals/reports"
    " (default .)\n"
    "  --fresh         discard existing journals; rerun"
    " everything\n"
    "  --inject-kill NAME/SHARD  SIGKILL that shard's first"
    " attempt right after spawn (fault-injection hook;"
    " repeatable)\n"
    "  --quiet         suppress the dispatch log\n";

/**
 * campaign ctl: orchestrate a manifest of sharded campaigns through
 * one CampaignCtl worker pool — respawn of dead workers (up to twice)
 * from their journal checkpoints, per-campaign merge and a final
 * report byte-identical to a serial run. Exit status: the number of
 * failed campaigns.
 */
int
ctlMain(int argc, char **argv)
{
    std::string manifestPath;
    std::string outDir = ".";
    CampaignCtlOptions options;
    options.log = &std::cout;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&](const char *flag) {
            return BenchCli::flagValue(argc, argv, i, flag);
        };
        if (!std::strcmp(arg, "--fresh")) {
            options.fresh = true;
        } else if (!std::strcmp(arg, "--quiet")) {
            options.log = nullptr;
        } else if (const char *workersArg = value("--workers")) {
            options.workers =
                BenchCli::countOrExit(argv[0], "--workers", workersArg);
        } else if (const char *outArg = value("--out")) {
            outDir = outArg;
        } else if (const char *v = value("--inject-kill")) {
            const char *slash = std::strrchr(v, '/');
            unsigned shard = 0;
            if (!slash || slash == v ||
                !parseWhole(slash + 1, shard)) {
                std::fprintf(stderr,
                             "bad --inject-kill '%s' (use"
                             " NAME/SHARD)\n",
                             v);
                return 2;
            }
            options.injectKills.emplace_back(
                std::string(v, slash - v), shard);
        } else if (arg[0] == '-') {
            return unknownArgument(arg, kCtlUsage);
        } else if (manifestPath.empty()) {
            manifestPath = arg;
        } else {
            std::fprintf(stderr, "extra argument '%s'\n", arg);
            return usageError(kCtlUsage);
        }
    }
    if (manifestPath.empty())
        return usageError(kCtlUsage);

    Manifest manifest;
    std::string error;
    if (!Manifest::load(manifestPath, manifest, error)) {
        std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
        return 2;
    }
    for (const auto &inject : options.injectKills) {
        bool known = false;
        for (const ManifestCampaign &campaign : manifest.campaigns)
            known |= campaign.name == inject.first &&
                     inject.second < campaign.shards;
        if (!known) {
            std::fprintf(stderr,
                         "%s: --inject-kill %s/%u names no shard of"
                         " the manifest\n",
                         argv[0], inject.first.c_str(), inject.second);
            return 2;
        }
    }

    // Campaigns that name no journal or report get
    // <out>/<name>.jsonl and .json; best-effort mkdir of <out>.
    for (ManifestCampaign &campaign : manifest.campaigns) {
        if (campaign.journal.empty())
            campaign.journal = outDir + "/" + campaign.name + ".jsonl";
        if (campaign.report.empty())
            campaign.report = outDir + "/" + campaign.name + ".json";
    }
    ::mkdir(outDir.c_str(), 0755);

    CampaignCtl ctl(std::move(manifest), std::move(options));
    const unsigned failures = ctl.run();

    Table table({"Campaign", "Status", "Spawns", "Runs", "Report"});
    for (const CampaignOutcome &outcome : ctl.outcomes()) {
        // Keep the table rectangular: full multi-line errors (log
        // tails) go to stderr below, the cell gets the first line.
        std::string cell =
            outcome.ok ? outcome.report : outcome.error;
        const std::size_t eol = cell.find('\n');
        if (eol != std::string::npos)
            cell.resize(eol);
        table.addRow({outcome.name, outcome.ok ? "ok" : "FAILED",
                      strfmt("%u", outcome.spawns),
                      strfmt("%zu", outcome.mergeStats.entries),
                      cell});
    }
    table.print();

    if (failures) {
        for (const CampaignOutcome &outcome : ctl.outcomes())
            if (!outcome.ok)
                std::fprintf(stderr, "campaign %s failed: %s\n",
                             outcome.name.c_str(),
                             outcome.error.c_str());
        std::fprintf(stderr, "%s: %u of %zu campaign(s) failed\n",
                     argv[0], failures, ctl.outcomes().size());
    }
    return countStatus(failures);
}

const char *const kUsage =
    "usage: campaign SUBCOMMAND [ARGS...]\n"
    "  merge    fold shard journals into one canonical journal\n"
    "  query    list, filter and group stored journals and reports\n"
    "  compare  diff two stored campaigns; exit status = regressed"
    " runs\n"
    "  ctl      orchestrate a manifest of sharded campaigns over one"
    " worker pool\n"
    "Run 'campaign SUBCOMMAND --help' for its arguments.\n";

} // namespace

int
main(int argc, char **argv)
{
    struct Subcommand
    {
        const char *name;
        const char *usage;
        int (*run)(int, char **);
    };
    static const Subcommand subcommands[] = {
        {"merge", kMergeUsage, mergeMain},
        {"query", kQueryUsage, queryMain},
        {"compare", kCompareUsage, compareMain},
        {"ctl", kCtlUsage, ctlMain},
    };
    const char *name = argc >= 2 ? argv[1] : "";
    if (isHelp(name)) {
        std::fputs(kUsage, stdout);
        return 0;
    }
    for (const Subcommand &sub : subcommands) {
        if (std::strcmp(name, sub.name) != 0)
            continue;
        for (int i = 2; i < argc; ++i)
            if (isHelp(argv[i])) {
                std::fputs(sub.usage, stdout);
                return 0;
            }
        // The subcommand parses its arguments like a program named
        // "campaign <name>", which prefixes its messages.
        std::string prog = std::string("campaign ") + sub.name;
        argv[1] = prog.data();
        return sub.run(argc - 1, argv + 1);
    }
    if (*name)
        std::fprintf(stderr, "unknown subcommand '%s'\n", name);
    return usageError(kUsage);
}
