/**
 * @file
 * Buddy-allocator property tests: no double allocation, coalescing,
 * lowest-first (consecutive) allocation — the behaviour the paper's
 * pair-selection step depends on.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/random.hh"
#include "kernel/buddy_allocator.hh"

namespace pth
{
namespace
{

TEST(Buddy, AllocatesLowestFirst)
{
    BuddyAllocator buddy(100, 1024);
    EXPECT_EQ(buddy.alloc(), 100u);
    EXPECT_EQ(buddy.alloc(), 101u);
    EXPECT_EQ(buddy.alloc(), 102u);
}

TEST(Buddy, StreamingAllocationIsConsecutive)
{
    // The property the spray exploits: most allocations are adjacent.
    BuddyAllocator buddy(0, 4096);
    PhysFrame prev = buddy.alloc();
    unsigned consecutive = 0;
    for (int i = 0; i < 1000; ++i) {
        PhysFrame f = buddy.alloc();
        if (f == prev + 1)
            ++consecutive;
        prev = f;
    }
    EXPECT_EQ(consecutive, 1000u);
}

TEST(Buddy, NoDoubleAllocation)
{
    BuddyAllocator buddy(0, 2048);
    std::set<PhysFrame> seen;
    for (int i = 0; i < 2048; ++i) {
        PhysFrame f = buddy.alloc();
        ASSERT_NE(f, kInvalidFrame);
        EXPECT_TRUE(seen.insert(f).second) << "frame " << f << " twice";
    }
    EXPECT_EQ(buddy.alloc(), kInvalidFrame);
}

TEST(Buddy, FreeRestoresCapacity)
{
    BuddyAllocator buddy(0, 256);
    std::vector<PhysFrame> frames;
    for (int i = 0; i < 256; ++i)
        frames.push_back(buddy.alloc());
    EXPECT_EQ(buddy.freeFrames(), 0u);
    for (PhysFrame f : frames)
        buddy.free(f);
    EXPECT_EQ(buddy.freeFrames(), 256u);
}

TEST(Buddy, CoalescingRebuildsLargeBlocks)
{
    BuddyAllocator buddy(0, 1024);
    std::vector<PhysFrame> singles;
    for (int i = 0; i < 1024; ++i)
        singles.push_back(buddy.alloc());
    for (PhysFrame f : singles)
        buddy.free(f);
    // After full free + coalescing, an order-8 block must be available.
    PhysFrame big = buddy.alloc(8);
    EXPECT_NE(big, kInvalidFrame);
    EXPECT_EQ(big % 256, 0u);
}

TEST(Buddy, HigherOrderAllocationsAreAligned)
{
    BuddyAllocator buddy(0, 4096);
    for (unsigned order : {1u, 3u, 5u, 9u}) {
        PhysFrame f = buddy.alloc(order);
        ASSERT_NE(f, kInvalidFrame);
        EXPECT_EQ(f & ((1ull << order) - 1), 0u)
            << "order " << order << " block misaligned";
    }
}

TEST(Buddy, NonPowerOfTwoRangeFullyUsable)
{
    BuddyAllocator buddy(10, 1000);
    unsigned count = 0;
    while (buddy.alloc() != kInvalidFrame)
        ++count;
    EXPECT_EQ(count, 1000u);
}

TEST(Buddy, RandomAllocFreeStress)
{
    // Property: under random alloc/free, free-frame accounting stays
    // exact and nothing is handed out twice.
    BuddyAllocator buddy(0, 512);
    Rng rng(1234);
    std::set<PhysFrame> live;
    for (int step = 0; step < 5000; ++step) {
        if (rng.chance(0.55) && buddy.freeFrames() > 0) {
            PhysFrame f = buddy.alloc();
            ASSERT_NE(f, kInvalidFrame);
            EXPECT_TRUE(live.insert(f).second);
        } else if (!live.empty()) {
            auto it = live.begin();
            std::advance(it, rng.below(live.size()));
            buddy.free(*it);
            live.erase(it);
        }
        EXPECT_EQ(buddy.freeFrames(), 512 - live.size());
    }
}

TEST(Buddy, ContainsChecksRange)
{
    BuddyAllocator buddy(100, 50);
    EXPECT_TRUE(buddy.contains(100));
    EXPECT_TRUE(buddy.contains(149));
    EXPECT_FALSE(buddy.contains(99));
    EXPECT_FALSE(buddy.contains(150));
}

} // namespace
} // namespace pth
