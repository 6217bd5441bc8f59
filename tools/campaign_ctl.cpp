/**
 * @file
 * campaign_ctl: orchestrate a manifest of sharded campaigns.
 *
 * Reads a JSON manifest naming campaigns (bench binary + args +
 * shard count each), dispatches every shard as a subprocess over a
 * bounded worker pool, respawns dead workers from their journal
 * checkpoints, speculatively re-issues stragglers once the queue
 * drains, merges each campaign's shard journals and renders its
 * final JSON report — which is byte-identical to what a serial
 * `program args --json=...` run would have written.
 *
 *   campaign_ctl MANIFEST [--workers N] [--out DIR] [--fresh]
 *                [--max-respawns N] [--max-reissues N]
 *                [--inject-kill NAME/SHARD] [--quiet]
 *
 * Exit status: the number of failed campaigns (0 = all good, 2 on
 * usage or manifest errors), so the tool drops straight into CI.
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include <sys/stat.h>

#include "common/table.hh"
#include "harness/bench_cli.hh"
#include "harness/campaign_ctl.hh"

using namespace pth;

int
main(int argc, char **argv)
{
    const char *usage =
        "usage: campaign_ctl MANIFEST [--workers N] [--out DIR]\n"
        "                    [--fresh] [--max-respawns N]\n"
        "                    [--max-reissues N]\n"
        "                    [--inject-kill NAME/SHARD] [--quiet]\n"
        "  MANIFEST        JSON manifest: {\"campaigns\": [{\"name\","
        " \"program\", \"args\", \"shards\", ...}]}\n"
        "  --workers N     worker pool width (default 2; 0 = one per"
        " core)\n"
        "  --out DIR       directory for derived journals/reports"
        " (default .)\n"
        "  --fresh         discard existing journals; rerun"
        " everything\n"
        "  --max-respawns N  extra attempts for a dead worker"
        " (default 2)\n"
        "  --max-reissues N  speculative backups per straggling shard"
        " once the queue drains (default 1; 0 disables)\n"
        "  --inject-kill NAME/SHARD  SIGKILL that shard's first"
        " attempt right after spawn (fault-injection hook;"
        " repeatable)\n"
        "  --quiet         suppress the dispatch log\n";

    std::string manifestPath;
    std::string outDir = ".";
    CampaignCtlOptions options;
    options.log = &std::cout;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&](const char *flag) {
            return BenchCli::flagValue(argc, argv, i, flag);
        };
        auto count = [](const char *flag, const char *text) {
            return BenchCli::countOrExit("campaign_ctl", flag, text);
        };
        if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
            std::fputs(usage, stdout);
            return 0;
        } else if (!std::strcmp(arg, "--fresh")) {
            options.fresh = true;
        } else if (!std::strcmp(arg, "--quiet")) {
            options.log = nullptr;
        } else if (const char *workersArg = value("--workers")) {
            options.workers = count("--workers", workersArg);
        } else if (const char *outArg = value("--out")) {
            outDir = outArg;
        } else if (const char *respawnsArg = value("--max-respawns")) {
            options.maxRespawns = count("--max-respawns", respawnsArg);
        } else if (const char *reissuesArg = value("--max-reissues")) {
            options.maxReissues = count("--max-reissues", reissuesArg);
        } else if (const char *v = value("--inject-kill")) {
            const char *slash = std::strrchr(v, '/');
            char excess = 0;
            unsigned shard = 0;
            if (!slash || slash == v ||
                std::sscanf(slash + 1, "%u%c", &shard, &excess) !=
                    1) {
                std::fprintf(stderr,
                             "bad --inject-kill '%s' (use"
                             " NAME/SHARD)\n",
                             v);
                return 2;
            }
            options.injectKills.emplace_back(
                std::string(v, slash - v), shard);
        } else if (!std::strcmp(arg, "--workers") ||
                   !std::strcmp(arg, "--out") ||
                   !std::strcmp(arg, "--max-respawns") ||
                   !std::strcmp(arg, "--max-reissues") ||
                   !std::strcmp(arg, "--inject-kill")) {
            // value() only fails for these when the value is gone.
            std::fprintf(stderr, "missing value for '%s'\n%s", arg,
                         usage);
            return 2;
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "unknown argument '%s'\n%s", arg,
                         usage);
            return 2;
        } else if (manifestPath.empty()) {
            manifestPath = arg;
        } else {
            std::fprintf(stderr, "extra argument '%s'\n%s", arg,
                         usage);
            return 2;
        }
    }
    if (manifestPath.empty()) {
        std::fputs(usage, stderr);
        return 2;
    }

    Manifest manifest;
    std::string error;
    if (!Manifest::load(manifestPath, manifest, error)) {
        std::fprintf(stderr, "campaign_ctl: %s\n", error.c_str());
        return 2;
    }
    for (const auto &inject : options.injectKills) {
        bool known = false;
        for (const ManifestCampaign &campaign : manifest.campaigns)
            known |= campaign.name == inject.first &&
                     inject.second < campaign.shards;
        if (!known) {
            std::fprintf(stderr,
                         "campaign_ctl: --inject-kill %s/%u names no"
                         " shard of the manifest\n",
                         inject.first.c_str(), inject.second);
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

    Table table({"Campaign", "Status", "Spawns", "Reissues", "Runs",
                 "Report"});
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
                      strfmt("%u", outcome.reissues),
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
        std::fprintf(stderr, "campaign_ctl: %u of %zu campaign(s)"
                             " failed\n",
                     failures, ctl.outcomes().size());
    }
    return failures > 255 ? 255 : static_cast<int>(failures);
}
