/**
 * @file
 * Sharded-dispatch tests: the headline contract is that an N-way
 * sharded-and-merged campaign report is byte-identical to the
 * single-process serial report — including when a worker is killed
 * (SIGKILL, nothing flushed) mid-shard and respawned to resume from
 * its own journal.
 *
 * The test binary is its own shard worker: invoked with
 * `--pth-worker [--die-at=K] [--die-marker=PATH]` among its bench
 * flags it behaves like a bench binary (BenchCli + runCampaign) over
 * a fixed 9-run campaign, so the BenchCli --workers parent path (and
 * the CampaignCtl pool under it) is exercised against real
 * subprocesses.
 * --die-at=K makes the worker SIGKILL itself when it reaches run K;
 * with --die-marker the suicide happens only while the marker file
 * does not exist (created just before dying), so the respawned
 * worker survives — without it the worker dies on every attempt,
 * which is how a permanently lost shard is simulated.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/table.hh"
#include "harness/bench_cli.hh"
#include "harness/campaign.hh"
#include "harness/result_store.hh"

namespace pth
{
namespace shardtest
{

/** Path of this binary (from /proc/self/exe), for spawning workers. */
std::string gProgram;

/** Runs executed in this process (not served from a journal). */
std::atomic<unsigned> gExecutions{0};

constexpr unsigned kRuns = 9;
constexpr unsigned kNoDie = ~0u;

/**
 * The fixed campaign both the tests and the subprocess workers
 * build: custom bodies deriving every result field from the seed, so
 * any execution anywhere yields identical journal bytes.
 */
Campaign
makeCampaign(unsigned dieAtIndex = kNoDie,
             const std::string &dieMarker = std::string())
{
    Campaign campaign;
    for (unsigned i = 0; i < kRuns; ++i) {
        RunSpec spec;
        spec.label = strfmt("point%u", i);
        spec.preset = MachinePreset::TestSmall;
        spec.seed = 50 + i;
        spec.body = [dieAtIndex, dieMarker](Machine &,
                                            const AttackConfig &,
                                            RunResult &res) {
            if (res.index == dieAtIndex) {
                bool die = true;
                if (!dieMarker.empty()) {
                    if (std::ifstream(dieMarker).good()) {
                        die = false; // already died once; survive
                    } else {
                        std::ofstream mark(dieMarker);
                    }
                }
                if (die)
                    std::raise(SIGKILL); // nothing flushed, like kill -9
            }
            ++gExecutions;
            res.flips = (res.seed * 7) % 5;
            res.flipped = res.flips > 0;
            res.attempts = static_cast<unsigned>(res.index) + 1;
            res.metrics.emplace_back(
                "seed_sq", static_cast<double>(res.seed * res.seed));
            res.metrics.emplace_back(
                "inv", 1.0 / static_cast<double>(res.seed));
            res.report.flipped = res.flipped;
            res.report.timeToFirstFlipMinutes =
                res.flipped ? 0.25 * static_cast<double>(res.seed)
                            : 0.0;
        };
        campaign.add(spec);
    }
    return campaign;
}

/** Subprocess entry: some argv[i] == "--pth-worker". */
int
workerMain(int argc, char **argv)
{
    unsigned dieAt = kNoDie;
    std::string marker;
    std::vector<char *> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--pth-worker"))
            continue;
        if (!std::strncmp(argv[i], "--die-at=", 9))
            dieAt = static_cast<unsigned>(
                std::strtoul(argv[i] + 9, nullptr, 10));
        else if (!std::strncmp(argv[i], "--die-marker=", 13))
            marker = argv[i] + 13;
        else
            args.push_back(argv[i]);
    }
    BenchCli cli =
        BenchCli::parse(static_cast<int>(args.size()), args.data(),
                        "test_shard worker");
    Campaign campaign = makeCampaign(dieAt, marker);
    cli.runCampaign(campaign); // worker mode: exits inside
    return 0;
}

namespace
{

std::string
tempPath(const char *name)
{
    return testing::TempDir() + "pth_shard_" + name;
}

void
removeFile(const std::string &path)
{
    std::remove(path.c_str());
}

/** Remove a --workers journal with its shard journals, re-issued
 * backups and logs. */
void
removeWorkerArtifacts(const std::string &journal, unsigned shards)
{
    for (unsigned s = 0; s < shards; ++s) {
        const std::string shard = journal + strfmt(".shard%u", s);
        for (const std::string &path :
             {shard, shard + ".log", shard + ".r1", shard + ".r1.log"})
            removeFile(path);
    }
    removeFile(journal);
}

std::string
serialReport()
{
    Campaign campaign = makeCampaign();
    CampaignOptions serial;
    serial.threads = 1;
    return Campaign::toJson(campaign.run(serial));
}

/** BenchCli::parse over a string argv (it may exit the process). */
BenchCli
parseArgs(std::vector<std::string> args,
          const std::vector<std::string> &passthrough = {})
{
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return BenchCli::parse(static_cast<int>(argv.size()),
                           argv.data(), "test_shard parent",
                           passthrough);
}

TEST(Shard, SlicingExecutesOnlyTheResidueClass)
{
    const std::string journal = tempPath("slice.jsonl");
    removeFile(journal);

    Campaign campaign = makeCampaign();
    CampaignOptions options;
    options.threads = 1;
    options.journalPath = journal;
    options.shardIndex = 1;
    options.shardCount = 3;

    gExecutions = 0;
    std::vector<RunResult> results = campaign.run(options);
    EXPECT_EQ(gExecutions.load(), 3u); // indices 1, 4, 7

    auto entries = ResultStore::load(journal);
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_TRUE(entries.count(1) && entries.count(4) &&
                entries.count(7));

    // The full index-ordered result vector comes back: the slice is
    // real, everything else visibly not-executed.
    ASSERT_EQ(results.size(), kRuns);
    EXPECT_TRUE(results[4].ok);
    EXPECT_FALSE(results[0].ok);
    EXPECT_NE(results[0].error.find("not executed"),
              std::string::npos);
    EXPECT_EQ(results[0].label, "point0"); // identity still filled

    removeFile(journal);
}

TEST(Shard, ShardedAndMergedReportByteIdenticalToSerial)
{
    const std::string expected = serialReport();

    for (unsigned shards : {1u, 2u, 4u, 8u}) {
        Campaign campaign = makeCampaign();
        std::vector<std::string> shardJournals;
        for (unsigned s = 0; s < shards; ++s) {
            const std::string journal =
                tempPath(strfmt("nway%u_%u.jsonl", shards, s).c_str());
            removeFile(journal);
            shardJournals.push_back(journal);

            CampaignOptions options;
            options.threads = s % 2 ? 2 : 1; // mixed pool/serial
            options.journalPath = journal;
            options.shardIndex = s;
            options.shardCount = shards;
            campaign.run(options);
        }

        const std::string merged =
            tempPath(strfmt("nway%u_merged.jsonl", shards).c_str());
        removeFile(merged);
        ResultStore::MergeStats stats;
        ASSERT_TRUE(
            ResultStore::merge(shardJournals, merged, &stats));
        EXPECT_EQ(stats.entries, kRuns);
        EXPECT_EQ(stats.overwritten, 0u); // disjoint slices

        // Serving the merged journal executes nothing and renders
        // the same bytes as the serial uninterrupted run.
        CampaignOptions serve;
        serve.threads = 1;
        serve.journalPath = merged;
        gExecutions = 0;
        EXPECT_EQ(Campaign::toJson(campaign.run(serve)), expected)
            << shards << "-way sharded report diverged";
        EXPECT_EQ(gExecutions.load(), 0u);

        for (const std::string &journal : shardJournals)
            removeFile(journal);
        removeFile(merged);
    }
}

TEST(Shard, MergeIsLastWinsWithStableOrderingAndCorruptTolerance)
{
    const std::string a = tempPath("overlap_a.jsonl");
    const std::string b = tempPath("overlap_b.jsonl");
    const std::string merged = tempPath("overlap_merged.jsonl");
    removeFile(a);
    removeFile(b);
    removeFile(merged);

    auto entry = [](std::size_t index, std::uint64_t flips) {
        RunResult r;
        r.index = index;
        r.label = strfmt("point%zu", index);
        r.flips = flips;
        return r;
    };
    {
        ResultStore store(a, /*truncate=*/true);
        store.record(entry(3, 111), /*key=*/0xaaa);
        store.record(entry(1, 10), 0xbbb);
    }
    {
        ResultStore store(b, /*truncate=*/true);
        store.record(entry(2, 20), 0xccc);
        store.record(entry(3, 999), 0xddd); // overlaps a's run 3
    }
    std::ofstream(b, std::ios::app) << "{\"torn line\n";

    ResultStore::MergeStats stats;
    ASSERT_TRUE(ResultStore::merge({a, b}, merged, &stats));
    EXPECT_EQ(stats.inputs, 2u);
    EXPECT_EQ(stats.entries, 3u);
    EXPECT_EQ(stats.overwritten, 1u);
    EXPECT_EQ(stats.corruptLines, 1u);

    // Last listed input wins the overlapped index.
    auto entries = ResultStore::load(merged);
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[3].result.flips, 999u);
    EXPECT_EQ(entries[3].key, 0xdddu);

    // Stable ordering: ascending run index, canonical bytes.
    std::ifstream in(merged);
    std::string line;
    std::vector<std::size_t> order;
    while (std::getline(in, line)) {
        ResultStore::Entry parsed;
        ASSERT_TRUE(ResultStore::deserialize(line, parsed));
        order.push_back(parsed.result.index);
        EXPECT_EQ(ResultStore::serialize(parsed.result, parsed.key),
                  line);
    }
    EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 3}));

    // Reversing the input order flips the winner.
    ASSERT_TRUE(ResultStore::merge({b, a}, merged, &stats));
    entries = ResultStore::load(merged);
    EXPECT_EQ(entries[3].result.flips, 111u);

    removeFile(a);
    removeFile(b);
    removeFile(merged);
}

TEST(Shard, LoadReportsCorruptLineCount)
{
    const std::string journal = tempPath("corrupt_count.jsonl");
    removeFile(journal);
    {
        ResultStore store(journal, /*truncate=*/true);
        RunResult r;
        r.index = 0;
        r.label = "ok";
        store.record(r, 1);
    }
    {
        std::ofstream out(journal, std::ios::app);
        out << "garbage\n";
        out << "{\"v\": 1, \"key\": \"00\", \"index\"\n";
    }
    ResultStore::LoadStats stats;
    auto entries = ResultStore::load(journal, &stats);
    EXPECT_EQ(entries.size(), 1u);
    EXPECT_EQ(stats.corruptLines, 2u);
    removeFile(journal);
}

TEST(Shard, AppendAfterTornLineDoesNotGlueRecords)
{
    const std::string journal = tempPath("torn_append.jsonl");
    removeFile(journal);
    {
        // A journal whose last line was cut mid-write, no newline.
        std::ofstream out(journal);
        out << "{\"v\": 1, \"key\": \"00";
    }
    {
        ResultStore store(journal, /*truncate=*/false);
        RunResult r;
        r.index = 5;
        r.label = "after-torn";
        store.record(r, 42);
    }
    ResultStore::LoadStats stats;
    auto entries = ResultStore::load(journal, &stats);
    EXPECT_EQ(stats.corruptLines, 1u); // the torn prefix, alone
    ASSERT_EQ(entries.size(), 1u); // the new record, intact
    EXPECT_EQ(entries[5].result.label, "after-torn");
    removeFile(journal);
}

TEST(Shard, KilledWorkerRespawnsResumesAndReportMatchesSerial)
{
    const std::string journal = tempPath("kill.jsonl");
    const std::string marker = tempPath("kill.marker");
    removeWorkerArtifacts(journal, 3);
    removeFile(marker);

    // Shard 1 owns run 4 (4 % 3 == 1): the first instance to reach it
    // SIGKILLs itself there, after checkpointing run 1. The respawn
    // finds the marker and resumes from the dead attempt's journal.
    BenchCli cli = parseArgs(
        {gProgram, "--workers=3", "--journal=" + journal, "--fresh"},
        {"--pth-worker", "--die-at=4", "--die-marker=" + marker});
    Campaign campaign = makeCampaign();
    gExecutions = 0;
    EXPECT_EQ(Campaign::toJson(cli.runCampaign(campaign)),
              serialReport());
    EXPECT_EQ(cli.workerDeaths, 0u);
    EXPECT_TRUE(std::ifstream(marker).good()) << "no worker died";

    removeWorkerArtifacts(journal, 3);
    removeFile(marker);
}

TEST(Shard, WorkersParentPathIsByteIdenticalAndResumable)
{
    const std::string journal = tempPath("parent.jsonl");
    removeWorkerArtifacts(journal, 4);

    Campaign campaign = makeCampaign();

    BenchCli first = parseArgs(
        {gProgram, "--workers=4", "--journal=" + journal, "--fresh"},
        {"--pth-worker"});
    std::vector<RunResult> results = first.runCampaign(campaign);
    EXPECT_EQ(first.workerDeaths, 0u);
    EXPECT_EQ(Campaign::toJson(results), serialReport());

    // Again without --fresh: workers resume their complete shard
    // journals, execute nothing, and the merge still serves the
    // identical report.
    BenchCli second = parseArgs(
        {gProgram, "--workers=4", "--journal=" + journal},
        {"--pth-worker"});
    EXPECT_EQ(Campaign::toJson(second.runCampaign(campaign)),
              serialReport());
    EXPECT_EQ(second.workerDeaths, 0u);

    removeWorkerArtifacts(journal, 4);
}

TEST(Shard, WorkersResumeFromTheParentJournal)
{
    const std::string journal = tempPath("seeded.jsonl");
    removeWorkerArtifacts(journal, 3);

    // Complete the campaign single-process into the parent journal.
    Campaign campaign = makeCampaign();
    CampaignOptions serial;
    serial.threads = 1;
    serial.journalPath = journal;
    const std::string expected =
        Campaign::toJson(campaign.run(serial));

    // Now run it with --workers, with workers rigged to die if they
    // ever EXECUTE run 4: the shard journals are seeded from the
    // parent journal, so nothing executes and nobody dies.
    BenchCli cli = parseArgs(
        {gProgram, "--workers=3", "--journal=" + journal},
        {"--pth-worker", "--die-at=4"});
    std::vector<RunResult> results = cli.runCampaign(campaign);
    EXPECT_EQ(cli.workerDeaths, 0u);
    EXPECT_EQ(Campaign::toJson(results), expected);

    removeWorkerArtifacts(journal, 3);
}

TEST(Shard, DeadWorkerSurfacesInReportAndFailureCount)
{
    const std::string journal = tempPath("dead.jsonl");
    removeWorkerArtifacts(journal, 3);

    Campaign campaign = makeCampaign();

    // No --die-marker: shard 1 dies at run 4 on every attempt.
    BenchCli cli = parseArgs(
        {gProgram, "--workers=3", "--journal=" + journal, "--fresh"},
        {"--pth-worker", "--die-at=4"});
    std::vector<RunResult> results = cli.runCampaign(campaign);

    EXPECT_EQ(cli.workerDeaths, 1u);

    // Run 1 was checkpointed before the death; 4 and 7 were lost and
    // carry the death reason, so reportFailures (plus workerDeaths,
    // as every bench now sums) drives a nonzero exit.
    ASSERT_EQ(results.size(), kRuns);
    EXPECT_TRUE(results[1].ok);
    EXPECT_FALSE(results[4].ok);
    EXPECT_FALSE(results[7].ok);
    EXPECT_NE(results[4].error.find("signal"), std::string::npos)
        << results[4].error;
    EXPECT_NE(results[7].error.find("signal"), std::string::npos)
        << results[7].error;
    EXPECT_GT(cli.failureCount(results), 0u);

    removeWorkerArtifacts(journal, 3);
}

TEST(Shard, ParseForwardsThreadsToWorkers)
{
    // Workers get --threads=1 ahead of the forwarded args, so an
    // explicit --threads reaches them and wins.
    const BenchCli cli = parseArgs(
        {gProgram, "--workers", "2", "--threads", "3"},
        {"--pth-worker"});
    EXPECT_EQ(cli.workers, 2u);
    EXPECT_EQ(cli.options.threads, 3u);
    EXPECT_EQ(cli.forwardArgs,
              (std::vector<std::string>{"--pth-worker", "--threads=3"}));
}

TEST(ShardCliDeath, ShardRequiresJournalAndValidFormat)
{
    EXPECT_EXIT(parseArgs({gProgram, "--shard=0/3"}),
                testing::ExitedWithCode(2), "requires --journal");
    EXPECT_EXIT(parseArgs({gProgram, "--shard=3/3",
                           "--journal=x.jsonl"}),
                testing::ExitedWithCode(2), "bad --shard");
    EXPECT_EXIT(parseArgs({gProgram, "--shard=0/3",
                           "--journal=x.jsonl", "--workers=2"}),
                testing::ExitedWithCode(2), "mutually exclusive");
}

TEST(ShardCliDeath, MalformedCountsExitTwo)
{
    // Only a whole non-negative decimal that fits an unsigned is a
    // count; nothing falls back to "all cores".
    for (const char *flag : {"--threads", "--workers", "--pool-threads"})
        for (const char *bad : {"x", "4x", "-1", "", "4294967296"})
            EXPECT_EXIT(
                parseArgs({gProgram, std::string(flag) + "=" + bad}),
                testing::ExitedWithCode(2),
                std::string("bad ") + flag)
                << flag << "=" << bad;
    EXPECT_EXIT(
        {
            ::setenv("PTH_THREADS", "abc", 1);
            parseArgs({gProgram});
        },
        testing::ExitedWithCode(2), "bad PTH_THREADS");
    EXPECT_EXIT(parseArgs({gProgram, "--workers", "--fresh"}),
                testing::ExitedWithCode(2),
                "missing value for '--workers'");
}

} // namespace
} // namespace shardtest
} // namespace pth

int
main(int argc, char **argv)
{
    // Resolve the binary's own path for fork/exec of shard workers;
    // argv[0] may be bare ("test_shard") under some launchers.
    char self[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    pth::shardtest::gProgram =
        n > 0 ? std::string(self, static_cast<std::size_t>(n))
              : std::string(argv[0]);

    // Worker argv is `program --threads=1 <forwarded args>...`.
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--pth-worker"))
            return pth::shardtest::workerMain(argc, argv);

    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
