/**
 * @file
 * Campaign-orchestrator tests. The headline contract mirrors
 * test_shard's, one level up: a manifest of campaigns dispatched by
 * CampaignCtl over a bounded worker pool — including with a worker
 * SIGKILLed mid-campaign — renders final reports byte-identical to
 * serial single-process runs.
 *
 * The test binary is its own bench: invoked with `--pth-worker
 * [--die-at=K] [--die-marker=PATH] [--fail-at=K]` among its bench
 * flags it behaves like a bench binary over a fixed 9-run campaign
 * whose every result field derives from the seed.
 *
 *  - --die-at=K: SIGKILL self when executing run K; with
 *    --die-marker, only while the marker file does not exist
 *    (created just before dying) — so the respawn survives.
 *  - --fail-at=K: run K fails inside the simulation (ok = false) —
 *    journaled, worker still exits 0, the render pass re-executes it
 *    and exits nonzero.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/table.hh"
#include "harness/bench_cli.hh"
#include "harness/campaign.hh"
#include "harness/campaign_ctl.hh"
#include "harness/result_store.hh"
#include "harness/scratch_dir.hh"

namespace pth
{
namespace ctltest
{

/** Path of this binary (from /proc/self/exe), for manifests. */
std::string gProgram;

constexpr unsigned kRuns = 9;
constexpr unsigned kNone = ~0u;

/** The fixed campaign the workers and the serial baseline build. */
Campaign
makeCampaign(unsigned dieAt = kNone,
             const std::string &dieMarker = std::string(),
             unsigned failAt = kNone)
{
    Campaign campaign;
    for (unsigned i = 0; i < kRuns; ++i) {
        RunSpec spec;
        spec.label = strfmt("point%u", i);
        spec.preset = MachinePreset::TestSmall;
        spec.seed = 90 + i;
        spec.body = [dieAt, dieMarker, failAt](Machine &,
                                               const AttackConfig &,
                                               RunResult &res) {
            if (res.index == dieAt) {
                bool die = true;
                if (!dieMarker.empty()) {
                    if (std::ifstream(dieMarker).good()) {
                        die = false; // already died once; survive
                    } else {
                        std::ofstream mark(dieMarker);
                    }
                }
                if (die)
                    std::raise(SIGKILL);
            }
            if (res.index == failAt)
                throw std::runtime_error("injected run failure");
            res.flips = (res.seed * 3) % 4;
            res.flipped = res.flips > 0;
            res.attempts = static_cast<unsigned>(res.index) + 1;
            res.metrics.emplace_back(
                "seed_sq", static_cast<double>(res.seed * res.seed));
            res.report.flipped = res.flipped;
            res.report.timeToFirstFlipMinutes =
                res.flipped ? 0.125 * static_cast<double>(res.seed)
                            : 0.0;
        };
        campaign.add(spec);
    }
    return campaign;
}

/** Subprocess entry: some argv[i] == "--pth-worker". Unlike
 * test_shard's worker this one also serves the render pass (no
 * --shard), so it honors --json and exits nonzero on failing runs,
 * like a real bench. */
int
workerMain(int argc, char **argv)
{
    unsigned dieAt = kNone;
    unsigned failAt = kNone;
    std::string dieMarker;
    std::vector<char *> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--pth-worker"))
            continue;
        if (!std::strncmp(argv[i], "--die-at=", 9))
            dieAt = static_cast<unsigned>(
                std::strtoul(argv[i] + 9, nullptr, 10));
        else if (!std::strncmp(argv[i], "--die-marker=", 13))
            dieMarker = argv[i] + 13;
        else if (!std::strncmp(argv[i], "--fail-at=", 10))
            failAt = static_cast<unsigned>(
                std::strtoul(argv[i] + 10, nullptr, 10));
        else
            args.push_back(argv[i]);
    }
    BenchCli cli =
        BenchCli::parse(static_cast<int>(args.size()), args.data(),
                        "test_campaign_ctl worker");
    Campaign campaign = makeCampaign(dieAt, dieMarker, failAt);
    std::vector<RunResult> results = cli.runCampaign(campaign);
    if (!cli.emitJson(results))
        return 1;
    return cli.failureCount(results) ? 1 : 0;
}

namespace
{

std::string
tempDir(const char *name)
{
    const std::string dir = testing::TempDir() + "pth_ctl_" + name;
    ::mkdir(dir.c_str(), 0755);
    // Scrub artifacts of a previous run of this very test.
    for (const char *suffix :
         {".jsonl", ".json", ".jsonl.merging"})
        for (const char *campaign : {"alpha", "beta"})
            std::remove((dir + "/" + campaign + suffix).c_str());
    return dir;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** The names in dir, sorted, without "." and "..". */
std::vector<std::string>
listDir(const std::string &dir)
{
    std::vector<std::string> names;
    if (DIR *d = ::opendir(dir.c_str())) {
        while (const dirent *entry = ::readdir(d))
            if (std::strcmp(entry->d_name, ".") != 0 &&
                std::strcmp(entry->d_name, "..") != 0)
                names.emplace_back(entry->d_name);
        ::closedir(d);
    }
    std::sort(names.begin(), names.end());
    return names;
}

std::string
serialReport()
{
    Campaign campaign = makeCampaign();
    CampaignOptions serial;
    serial.threads = 1;
    return Campaign::toJson(campaign.run(serial));
}

/** A two-campaign manifest over this test binary, journaling and
 * reporting to outDir/<name>.jsonl and .json; extraArgs are appended
 * to the named campaign's worker args. */
Manifest
makeManifest(const std::string &outDir,
             const std::vector<std::string> &alphaExtra = {},
             const std::vector<std::string> &betaExtra = {},
             unsigned alphaShards = 3, unsigned betaShards = 2)
{
    Manifest manifest;
    ManifestCampaign alpha;
    alpha.name = "alpha";
    alpha.program = gProgram;
    alpha.args = {"--pth-worker"};
    alpha.args.insert(alpha.args.end(), alphaExtra.begin(),
                      alphaExtra.end());
    alpha.shards = alphaShards;
    alpha.journal = outDir + "/alpha.jsonl";
    alpha.report = outDir + "/alpha.json";
    ManifestCampaign beta;
    beta.name = "beta";
    beta.program = gProgram;
    beta.args = {"--pth-worker"};
    beta.args.insert(beta.args.end(), betaExtra.begin(),
                     betaExtra.end());
    beta.shards = betaShards;
    beta.journal = outDir + "/beta.jsonl";
    beta.report = outDir + "/beta.json";
    manifest.campaigns = {alpha, beta};
    return manifest;
}

CampaignCtlOptions
makeOptions(std::ostream *log = nullptr)
{
    CampaignCtlOptions options;
    options.workers = 3;
    options.fresh = true;
    options.log = log;
    return options;
}

TEST(CtlManifest, ParsesCampaignsWithDefaultsAndOverrides)
{
    Manifest manifest;
    std::string error;
    ASSERT_TRUE(Manifest::parse(
        R"({"campaigns": [
              {"name": "t1", "program": "/bin/a",
               "args": ["--tiny", "--dram-model=trr"], "shards": 4,
               "journal": "x.jsonl", "report": "x.json"},
              {"name": "t2", "program": "/bin/b"}
            ]})",
        manifest, error))
        << error;
    ASSERT_EQ(manifest.campaigns.size(), 2u);
    EXPECT_EQ(manifest.campaigns[0].name, "t1");
    EXPECT_EQ(manifest.campaigns[0].shards, 4u);
    EXPECT_EQ(manifest.campaigns[0].args,
              (std::vector<std::string>{"--tiny",
                                        "--dram-model=trr"}));
    EXPECT_EQ(manifest.campaigns[0].journal, "x.jsonl");
    EXPECT_EQ(manifest.campaigns[1].shards, 1u);
    EXPECT_TRUE(manifest.campaigns[1].journal.empty());
}

TEST(CtlManifest, RejectsMalformedManifests)
{
    const std::vector<std::pair<const char *, const char *>> cases = {
        {"not json at all", "not a JSON object"},
        {R"({"campaigns": []})", "no campaigns"},
        {R"({"campaignz": [1]})", "unknown key"},
        {R"({"campaigns": [{"program": "/bin/a"}]})",
         "missing or empty \"name\""},
        {R"({"campaigns": [{"name": "a"}]})",
         "missing or empty \"program\""},
        {R"({"campaigns": [{"name": "a/b", "program": "x"}]})",
         "may not contain"},
        {R"({"campaigns": [{"name": "a", "program": "x",
                            "shards": 0}]})",
         "positive integer"},
        {R"({"campaigns": [{"name": "a", "program": "x",
                            "shards": 1.5}]})",
         "positive integer"},
        {R"({"campaigns": [{"name": "a", "program": "x",
                            "shards": 4294967297}]})",
         "positive integer"},
        {R"({"campaigns": [{"name": "a", "program": "x",
                            "args": [1]}]})",
         "non-string"},
        {R"({"campaigns": [{"name": "a", "program": "x",
                            "shardz": 2}]})",
         "unknown key"},
        {R"({"campaigns": [{"name": "a", "program": "x"},
                           {"name": "a", "program": "y"}]})",
         "duplicate campaign name"},
    };
    for (const auto &item : cases) {
        Manifest manifest;
        std::string error;
        EXPECT_FALSE(Manifest::parse(item.first, manifest, error))
            << item.first;
        EXPECT_NE(error.find(item.second), std::string::npos)
            << "error was: " << error;
    }
}

TEST(CtlManifestDeathTest, InvalidManifestFileExitsLikeTheTool)
{
    // The tool's load-or-exit path: a validation failure must be a
    // hard usage error (exit 2, reason on stderr), never a silently
    // empty suite.
    auto loadOrDie = [](const std::string &text) {
        Manifest manifest;
        std::string error;
        if (!Manifest::parse(text, manifest, error)) {
            std::fprintf(stderr, "campaign_ctl: %s\n", error.c_str());
            std::exit(2);
        }
        std::exit(0);
    };
    EXPECT_EXIT(loadOrDie(R"({"campaigns": [{"name": "a",
                              "program": "x"},
                             {"name": "a", "program": "y"}]})"),
                testing::ExitedWithCode(2),
                "duplicate campaign name");
    EXPECT_EXIT(loadOrDie("{"), testing::ExitedWithCode(2),
                "not a JSON object");
    Manifest missing;
    std::string error;
    EXPECT_FALSE(
        Manifest::load("/nonexistent/manifest.json", missing, error));
    EXPECT_NE(error.find("cannot read"), std::string::npos);
}

TEST(CampaignCtl, DispatchOrderIsManifestOrderForAnyPoolWidth)
{
    // First-attempt shard spawns must appear in manifest order in
    // the dispatch log whatever the pool width — the queue is built
    // up front and drained in order; only respawn and render lines
    // may interleave on timing.
    std::vector<std::string> expected;
    for (unsigned s = 0; s < 3; ++s)
        expected.push_back(strfmt("[ctl] spawn alpha/%u", s));
    for (unsigned s = 0; s < 2; ++s)
        expected.push_back(strfmt("[ctl] spawn beta/%u", s));

    // Each task is one subprocess: a journal and a log per shard, the
    // merged journal, the render log and the report, and nothing
    // else.
    std::vector<std::string> artifacts;
    for (const auto &[name, shards] :
         {std::pair<std::string, unsigned>{"alpha", 3},
          std::pair<std::string, unsigned>{"beta", 2}}) {
        artifacts.push_back(name + ".json");
        artifacts.push_back(name + ".jsonl");
        artifacts.push_back(name + ".jsonl.render.log");
        for (unsigned s = 0; s < shards; ++s) {
            artifacts.push_back(name + strfmt(".jsonl.shard%u", s));
            artifacts.push_back(name + strfmt(".jsonl.shard%u.log", s));
        }
    }
    std::sort(artifacts.begin(), artifacts.end());

    for (unsigned poolWidth : {1u, 2u, 8u}) {
        ScratchDirGuard outDir = ScratchDirGuard::create(
            testing::TempDir() + "pth_ctl_orderXXXXXX");
        std::ostringstream log;
        CampaignCtlOptions options = makeOptions(&log);
        options.workers = poolWidth;
        CampaignCtl ctl(makeManifest(outDir.path()), options);
        ASSERT_EQ(ctl.run(), 0u) << "pool width " << poolWidth;
        // 3 shards + render, 2 shards + render: one spawn each.
        EXPECT_EQ(ctl.outcomes()[0].spawns, 4u) << "pool width "
                                                << poolWidth;
        EXPECT_EQ(ctl.outcomes()[1].spawns, 3u) << "pool width "
                                                << poolWidth;
        EXPECT_EQ(listDir(outDir.path()), artifacts)
            << "pool width " << poolWidth;

        std::vector<std::string> spawns;
        std::istringstream lines(log.str());
        std::string line;
        while (std::getline(lines, line))
            if (line.rfind("[ctl] spawn ", 0) == 0 &&
                line.find("/render") == std::string::npos)
                spawns.push_back(line);
        EXPECT_EQ(spawns, expected) << "pool width " << poolWidth;
    }
}

TEST(CampaignCtl, ManifestReportsAreByteIdenticalToSerial)
{
    const std::string outDir = tempDir("serial");
    CampaignCtl ctl(makeManifest(outDir), makeOptions());
    ASSERT_EQ(ctl.run(), 0u);

    const std::string expected = serialReport();
    ASSERT_EQ(ctl.outcomes().size(), 2u);
    for (const CampaignOutcome &outcome : ctl.outcomes()) {
        EXPECT_TRUE(outcome.ok) << outcome.error;
        EXPECT_EQ(outcome.mergeStats.entries, kRuns);
        EXPECT_EQ(readFile(outcome.report), expected)
            << outcome.name << " report diverged from serial";
    }
}

TEST(CampaignCtl, KilledWorkerIsRespawnedAndReportMatchesSerial)
{
    const std::string outDir = tempDir("kill");
    const std::string marker = outDir + "/die.marker";
    std::remove(marker.c_str());

    // Two fault styles at once: alpha shard 1 is SIGKILLed by the
    // orchestrator right at spawn (inject-kill), and whichever beta
    // worker owns run 4 kills itself MID-CAMPAIGN after
    // checkpointing earlier runs (die-at + marker to survive the
    // respawn). Both recover to byte-identical reports.
    CampaignCtlOptions options = makeOptions();
    options.injectKills.emplace_back("alpha", 1u);
    CampaignCtl ctl(
        makeManifest(outDir, {},
                     {"--die-at=4", "--die-marker=" + marker}),
        options);
    ASSERT_EQ(ctl.run(), 0u);

    const std::string expected = serialReport();
    for (const CampaignOutcome &outcome : ctl.outcomes()) {
        EXPECT_TRUE(outcome.ok) << outcome.error;
        EXPECT_EQ(readFile(outcome.report), expected)
            << outcome.name;
    }
    // Beta's self-kill is deterministic: exactly one extra spawn on
    // top of 2 shards + 1 render. Alpha's inject-kill races the
    // (tiny) shard's own exit — almost always 5 spawns, but a worker
    // that wins the race needs no respawn, so 4 is also legal.
    EXPECT_GE(ctl.outcomes()[0].spawns, 4u);
    EXPECT_LE(ctl.outcomes()[0].spawns, 5u);
    EXPECT_EQ(ctl.outcomes()[1].spawns, 4u);

    // The mid-campaign kill left a pre-death checkpoint behind and
    // the respawn resumed rather than recomputed: the dead attempt's
    // journal entries survive into the merge (die-at=4 with 2 shards
    // puts runs 0 and 2 before the death on the same worker).
    EXPECT_EQ(ctl.outcomes()[1].mergeStats.entries, kRuns);
    std::remove(marker.c_str());
}

TEST(CampaignCtl, PermanentlyDeadShardFailsItsCampaignOnly)
{
    const std::string outDir = tempDir("dead");

    // No die-marker: the beta worker owning run 4 dies on every
    // attempt. Its campaign must fail loudly; alpha is unaffected.
    std::ostringstream log;
    CampaignCtl ctl(makeManifest(outDir, {}, {"--die-at=4"}),
                    makeOptions(&log));
    EXPECT_EQ(ctl.run(), 1u);

    const CampaignOutcome &alpha = ctl.outcomes()[0];
    const CampaignOutcome &beta = ctl.outcomes()[1];
    EXPECT_TRUE(alpha.ok) << alpha.error;
    EXPECT_EQ(readFile(alpha.report), serialReport());
    EXPECT_FALSE(beta.ok);
    EXPECT_EQ(beta.deadShards, 1u);
    EXPECT_NE(beta.error.find("died"), std::string::npos);
    EXPECT_NE(beta.error.find("signal"), std::string::npos);
    // The dead shard's journal is still merged: runs 0 and 2 were
    // checkpointed before it died at run 4, and shard 1 has 1,3,5,7.
    EXPECT_EQ(beta.mergeStats.entries, 6u);
    // Death after exhausting 1 + kMaxRespawns attempts; shard 1 spawns
    // once, and no render runs.
    EXPECT_EQ(beta.spawns, kMaxRespawns + 2);
    EXPECT_NE(log.str().find("dead beta/0"), std::string::npos);
    // No report was rendered for the failed campaign.
    EXPECT_NE(log.str().find("campaign beta FAILED"),
              std::string::npos);
    EXPECT_TRUE(readFile(beta.report).empty());
}

TEST(CampaignCtl, SimulationFailureSurfacesThroughTheRenderPass)
{
    const std::string outDir = tempDir("simfail");

    // Run 4 of beta fails INSIDE the simulation: the shard worker
    // journals the failure and exits 0 (failure isolation), the
    // merge succeeds, and the render pass — which re-executes failed
    // runs — exits nonzero. The campaign must be surfaced as failed
    // without any respawn churn (the verdict is deterministic).
    std::ostringstream log;
    CampaignCtl ctl(makeManifest(outDir, {}, {"--fail-at=4"}),
                    makeOptions(&log));
    EXPECT_EQ(ctl.run(), 1u);

    const CampaignOutcome &beta = ctl.outcomes()[1];
    EXPECT_FALSE(beta.ok);
    EXPECT_NE(beta.error.find("render exited with status"),
              std::string::npos);
    // The shards themselves all completed; only the render failed.
    EXPECT_NE(log.str().find("merge beta"), std::string::npos);
    // The report WAS written (emitJson runs before the exit status):
    // it records the failing run rather than pretending success.
    EXPECT_NE(readFile(beta.report).find("injected run failure"),
              std::string::npos);
}

TEST(CampaignCtl, RerunResumesFromMergedJournalsWithoutRecompute)
{
    const std::string outDir = tempDir("resume");
    Manifest manifest =
        makeManifest(outDir, {"--die-at=4"}, {"--die-at=4"});

    // First pass: clean run WITHOUT the die flag to build journals.
    CampaignCtl first(makeManifest(outDir), makeOptions());
    ASSERT_EQ(first.run(), 0u);
    const std::string alphaReport =
        readFile(first.outcomes()[0].report);

    // Second pass resumes (fresh = false) with workers rigged to die
    // if they ever EXECUTE run 4: every shard journal is seeded from
    // the merged campaign journal, so nothing executes, nobody dies,
    // and the reports come out identical.
    CampaignCtlOptions options = makeOptions();
    options.fresh = false;
    CampaignCtl second(manifest, options);
    ASSERT_EQ(second.run(), 0u);
    for (const CampaignOutcome &outcome : second.outcomes()) {
        EXPECT_TRUE(outcome.ok) << outcome.error;
        // One spawn per shard plus the render — no respawns.
        EXPECT_EQ(outcome.spawns,
                  (outcome.name == "alpha" ? 3u : 2u) + 1u);
    }
    EXPECT_EQ(readFile(second.outcomes()[0].report), alphaReport);
}

} // namespace
} // namespace ctltest
} // namespace pth

int
main(int argc, char **argv)
{
    char self[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    pth::ctltest::gProgram =
        n > 0 ? std::string(self, static_cast<std::size_t>(n))
              : std::string(argv[0]);

    // Worker argv is `program --threads=1 <campaign args>...`.
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--pth-worker"))
            return pth::ctltest::workerMain(argc, argv);

    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
