/**
 * @file
 * Sharded-dispatch tests: the headline contract is that an N-way
 * sharded-and-merged campaign report is byte-identical to the
 * single-process serial report. These are the building blocks
 * `campaign ctl` runs as subprocesses (test_campaign_ctl drives the
 * pool itself): --shard slicing, `campaign merge` and journal
 * corruption handling, and the shared bench parser's --shard and
 * count validation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/table.hh"
#include "harness/bench_cli.hh"
#include "harness/campaign.hh"
#include "harness/result_store.hh"

namespace pth
{
namespace
{

/** argv[0] of the parser death tests. */
constexpr const char *kProgram = "test_shard";

/** Runs executed in this process (not served from a journal). */
std::atomic<unsigned> gExecutions{0};

constexpr unsigned kRuns = 9;

/**
 * The fixed campaign the tests build: custom bodies deriving every
 * result field from the seed, so any execution anywhere yields
 * identical journal bytes.
 */
Campaign
makeCampaign()
{
    Campaign campaign;
    for (unsigned i = 0; i < kRuns; ++i) {
        RunSpec spec;
        spec.label = strfmt("point%u", i);
        spec.preset = MachinePreset::TestSmall;
        spec.seed = 50 + i;
        spec.body = [](Machine &, const AttackConfig &, RunResult &res) {
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
parseArgs(std::vector<std::string> args)
{
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return BenchCli::parse(static_cast<int>(argv.size()),
                           argv.data(), "test_shard");
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

TEST(ShardCliDeath, ShardRequiresJournalAndValidFormat)
{
    EXPECT_EXIT(parseArgs({kProgram, "--shard=0/3"}),
                testing::ExitedWithCode(2), "requires --journal");
    // I and N are counts, split at the one '/', with 0 <= I < N.
    for (const char *bad : {"3/3", "0/4294967299", "0/+3", " 1/3",
                            "-1/3", "1/3x", "/3", "0/"})
        EXPECT_EXIT(parseArgs({kProgram, std::string("--shard=") + bad,
                               "--journal=x.jsonl"}),
                    testing::ExitedWithCode(2), "bad --shard")
            << bad;
}

TEST(ShardCliDeath, MalformedCountsExitTwo)
{
    // Only a whole non-negative decimal that fits an unsigned is a
    // count; nothing falls back to "all cores".
    for (const char *flag : {"--threads", "--pool-threads"})
        for (const char *bad : {"x", "4x", "-1", "", "4294967296"})
            EXPECT_EXIT(
                parseArgs({kProgram, std::string(flag) + "=" + bad}),
                testing::ExitedWithCode(2),
                std::string("bad ") + flag)
                << flag << "=" << bad;
    EXPECT_EXIT(
        {
            ::setenv("PTH_THREADS", "abc", 1);
            parseArgs({kProgram});
        },
        testing::ExitedWithCode(2), "bad PTH_THREADS");
    EXPECT_EXIT(parseArgs({kProgram, "--threads", "--fresh"}),
                testing::ExitedWithCode(2),
                "missing value for '--threads'");
}

TEST(ShardCliDeath, MultiHartFlagsAreUnknownToTheSharedParser)
{
    // Only bench_multicore_hammer reads --harts and --interleave, and
    // it parses them itself; to every other bench they are typos.
    for (const char *flag : {"--harts=4", "--interleave=seeded:7"})
        EXPECT_EXIT(parseArgs({kProgram, flag}),
                    testing::ExitedWithCode(2), "unknown argument")
            << flag;
}

TEST(ShardCliDeath, WorkersIsAnUnknownArgument)
{
    // A bench runs in one process; `campaign ctl --workers N` is the
    // process pool.
    for (const char *flag : {"--workers=3", "--workers"})
        EXPECT_EXIT(parseArgs({kProgram, flag, "3"}),
                    testing::ExitedWithCode(2),
                    std::string("unknown argument '") + flag + "'")
            << flag;
}

} // namespace
} // namespace pth
