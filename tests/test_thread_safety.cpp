/**
 * @file
 * Regression tests pinning the concrete findings of the thread-safety
 * annotation pass (common/thread_annotations.hh, common/sync.hh), and
 * the lock discipline the annotations now encode. Each test is an
 * honest race when the guarded invariant is broken — run the suite
 * under -DPTH_SANITIZE=thread and TSan reports the data race the
 * finding described; with the fixes in place the suite is
 * sanitizer-clean.
 *
 * Findings pinned here:
 *  1. ResultStore::record() is the one mutation every worker performs
 *     concurrently; its Mutex (PTH_GUARDED_BY(mtx_) on the stream)
 *     must serialize whole journal lines.
 *  2. Eight workers fork one prebuilt snapshot, and the report stays
 *     byte-identical to the serial run.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness/campaign.hh"
#include "harness/result_store.hh"

namespace pth
{
namespace
{

/**
 * Finding 1: concurrent record() from as many threads as the
 * campaign would use. Every journal line must parse and every
 * (index, key) pair must survive — interleaved writes would corrupt
 * lines, which load() counts.
 */
TEST(ThreadSafety, ResultStoreConcurrentRecord)
{
    std::string dir = testing::TempDir() + "pth_tsafety_XXXXXX";
    ASSERT_NE(::mkdtemp(dir.data()), nullptr);
    const std::string path = dir + "/journal.jsonl";
    constexpr unsigned kThreads = 8;
    constexpr unsigned kPerThread = 50;
    {
        ResultStore store(path, /*truncate=*/true);
        std::vector<std::thread> writers;
        for (unsigned t = 0; t < kThreads; ++t)
            writers.emplace_back([&store, t] {
                for (unsigned i = 0; i < kPerThread; ++i) {
                    RunResult r;
                    r.index = t * kPerThread + i;
                    r.label = "w" + std::to_string(t);
                    r.seed = r.index;
                    r.flips = t;
                    store.record(r, /*key=*/1000 + r.index);
                }
            });
        for (auto &w : writers)
            w.join();
    }
    ResultStore::LoadStats stats;
    auto entries = ResultStore::load(path, &stats);
    std::filesystem::remove_all(dir);
    EXPECT_EQ(stats.corruptLines, 0u);
    ASSERT_EQ(entries.size(),
              static_cast<std::size_t>(kThreads) * kPerThread);
    for (const auto &[index, entry] : entries) {
        EXPECT_EQ(entry.key, 1000 + index);
        EXPECT_EQ(entry.result.index, index);
        EXPECT_EQ(entry.result.seed, index);
    }
}

/**
 * Finding 2: one shared snapshot under maximum contention. An
 * attack-scoped seed sweep makes every run share one derived machine
 * config, so with reuseMachines all eight workers fork the same
 * prebuilt snapshot at once. Those concurrent reads must be
 * TSan-clean and keep the byte-identity contract against the serial
 * run.
 */
TEST(ThreadSafety, SharedSnapshotKeepsReportsIdentical)
{
    RunSpec base;
    base.label = "snapshot-race";
    base.preset = MachinePreset::TestSmall;
    base.strategy = HammerStrategy::PThammer;
    base.attack.superpages = true;
    base.attack.sprayBytes = 24ull << 20;
    base.attack.superpageSampleClasses = 2;
    base.attack.maxAttempts = 4;
    base.attack.hammerBudgetSeconds = 36000;

    Campaign campaign;
    campaign.addAttackSeedSweep(base, /*seedBase=*/42, /*count=*/16);

    CampaignOptions serial;
    serial.threads = 1;
    serial.reuseMachines = true;
    const auto serialResults = campaign.run(serial);

    CampaignOptions threaded;
    threaded.threads = 8;
    threaded.reuseMachines = true;
    const auto threadedResults = campaign.run(threaded);

    EXPECT_EQ(Campaign::toJson(serialResults),
              Campaign::toJson(threadedResults));
}

} // namespace
} // namespace pth
