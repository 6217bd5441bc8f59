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
 *  1. ThreadPool::threadCount() used to read workers.size() with no
 *     lock, racing shutdown()'s workers.clear() — fixed by making the
 *     count an immutable member set at construction.
 *  2. Campaign's shared-snapshot lazy init used std::once_flag, which
 *     Clang Thread Safety Analysis cannot see through — refactored to
 *     a Mutex-guarded slot with identical semantics (racing workers
 *     serialize; a throw leaves the slot empty so the next run
 *     retries). The threaded-vs-serial byte-identity test exercises
 *     exactly that contended first-touch path.
 *  3. ResultStore::record() is the one mutation every worker performs
 *     concurrently; its Mutex (PTH_GUARDED_BY(mtx_) on the stream)
 *     must serialize whole journal lines.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"
#include "harness/campaign.hh"
#include "harness/result_store.hh"
#include "harness/scratch_dir.hh"

namespace pth
{
namespace
{

/**
 * Finding 1: threadCount() concurrent with shutdown(). Before the
 * fix this was a read of workers.size() racing workers.clear();
 * TSan flagged it and the value could transiently read 0. Now the
 * count is a const member: always the constructed value, no lock,
 * no race — and shutdown() stays an owner-thread call while other
 * threads only query the count.
 */
TEST(ThreadSafety, ThreadCountStableAcrossShutdown)
{
    for (int round = 0; round < 8; ++round) {
        ThreadPool pool(3);
        std::atomic<bool> go{false};
        std::atomic<unsigned> bad{0};
        std::thread reader([&] {
            while (!go.load())
                ;
            for (int i = 0; i < 10000; ++i)
                if (pool.threadCount() != 3u)
                    ++bad;
        });
        for (int i = 0; i < 16; ++i)
            pool.submit([] { return 0; });
        go.store(true);
        pool.shutdown();
        reader.join();
        EXPECT_EQ(bad.load(), 0u);
        EXPECT_EQ(pool.threadCount(), 3u);
    }
}

/**
 * Finding 3: concurrent record() from as many threads as the
 * campaign would use. Every journal line must parse and every
 * (index, key) pair must survive — interleaved writes would corrupt
 * lines, which load() counts.
 */
TEST(ThreadSafety, ResultStoreConcurrentRecord)
{
    auto scratch = ScratchDirGuard::create("/tmp/pth_tsafetyXXXXXX");
    const std::string path = scratch.path() + "/journal.jsonl";
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
 * Finding 2: the shared-snapshot slot's lazy init under maximum
 * contention. An attack-scoped seed sweep makes every run share one
 * derived machine config, so with reuseMachines all eight workers
 * race to first-touch the same SnapshotSlot. The Mutex-guarded init
 * must both serialize construction (TSan-clean) and preserve the
 * byte-identity contract against the serial run.
 */
TEST(ThreadSafety, SharedSnapshotInitRaceKeepsReportsIdentical)
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
