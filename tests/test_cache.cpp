/**
 * @file
 * Cache and hierarchy tests: set/slice indexing, fills and evictions,
 * the inclusion invariant with back-invalidation, and clflush.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/cache_hierarchy.hh"
#include "cache/slice_hash.hh"
#include "common/random.hh"
#include "dram/dram.hh"
#include "mem/physical_memory.hh"

namespace pth
{
namespace
{

CacheConfig
smallCache(unsigned ways = 4, std::uint64_t sets = 16, unsigned slices = 1)
{
    CacheConfig c;
    c.sets = sets;
    c.ways = ways;
    c.slices = slices;
    c.latency = 10;
    c.replacement = ReplacementKind::Lru;
    return c;
}

TEST(SliceHash, DeterministicAndInRange)
{
    for (unsigned slices : {1u, 2u, 4u, 8u}) {
        SliceHash hash(slices);
        Rng rng(slices);
        for (int i = 0; i < 1000; ++i) {
            PhysAddr pa = rng.next() & ((1ull << 33) - 1);
            unsigned s = hash.slice(pa);
            EXPECT_LT(s, slices);
            EXPECT_EQ(s, hash.slice(pa));
        }
    }
}

TEST(CacheStateHash, SeesReplacementOrder)
{
    // Three caches end up holding the same lines with the same
    // hit/miss counters; a and b reached them in opposite access
    // order, so their next victims differ and the digests must too.
    // Pins the snapshot-audit bug where Cache::stateHash ignored
    // replacement metadata.
    Cache a(smallCache(2), "a");
    Cache b(smallCache(2), "b");
    Cache c(smallCache(2), "c");
    PhysAddr x = 0;        // set 0, tag 0
    PhysAddr y = 16 * 64;  // set 0, tag 16
    for (Cache *cache : {&a, &b, &c}) {
        cache->fill(x);
        cache->fill(y);
    }
    a.access(x);
    a.access(y);
    b.access(y);
    b.access(x);
    c.access(x);
    c.access(y);
    EXPECT_NE(a.stateHash(), b.stateHash());
    EXPECT_EQ(a.stateHash(), c.stateHash());
}

/** Cache::stateHash of an 8-set, 2-slice cache of the given width
 * after one fixed sequence of fills past capacity, hits,
 * invalidations, a full flush and refills. */
std::uint64_t
pinnedSequenceDigest(ReplacementKind kind, unsigned ways)
{
    // 256 distinct lines over 16 sets force policy victims at every
    // width pinned below.
    Cache cache(CacheConfig{8, ways, 2, 4, kind}, "pin");
    Rng rng(42);
    auto touch = [&](int n) {
        for (int i = 0; i < n; ++i) {
            PhysAddr pa = rng.below(256) * kLineBytes;
            if (!cache.access(pa))
                cache.fill(pa);
        }
    };
    touch(600);
    for (int i = 0; i < 64; ++i)
        cache.invalidate(rng.below(256) * kLineBytes);
    touch(40);
    cache.flushAll();
    touch(200);
    return cache.stateHash();
}

TEST(CacheStateHash, PinnedPerPolicy)
{
    // Cache::stateHash must stay byte-identical when the way array or
    // a policy is reworked. A drift fails here, at the structure that
    // caused it, not only in machine fingerprints.
    // 6 ways exercise the padded tree of a non-power-of-two TreePlru.
    EXPECT_EQ(pinnedSequenceDigest(ReplacementKind::Lru, 6),
              0x1010274374d70091ull);
    EXPECT_EQ(pinnedSequenceDigest(ReplacementKind::TreePlru, 6),
              0x083c726f9232cd08ull);
    EXPECT_EQ(pinnedSequenceDigest(ReplacementKind::Aging, 6),
              0x9bfa88f9266dc699ull);
}

TEST(CacheStateHash, PinnedAtLlcWidths)
{
    // The T420 (12-way) and Dell (16-way) LLC widths. Both span two
    // words of Aging's eight-lane age rows, and 12 ways pads the tree
    // of TreePlru.
    EXPECT_EQ(pinnedSequenceDigest(ReplacementKind::Lru, 12),
              0x98f2ec5950dd3eb5ull);
    EXPECT_EQ(pinnedSequenceDigest(ReplacementKind::TreePlru, 12),
              0x631aab375d06ead8ull);
    EXPECT_EQ(pinnedSequenceDigest(ReplacementKind::Aging, 12),
              0x56349dfc480b3f6aull);
    EXPECT_EQ(pinnedSequenceDigest(ReplacementKind::Lru, 16),
              0x713f94bbf8076267ull);
    EXPECT_EQ(pinnedSequenceDigest(ReplacementKind::TreePlru, 16),
              0x1a171bed4dddb4f0ull);
    EXPECT_EQ(pinnedSequenceDigest(ReplacementKind::Aging, 16),
              0x1e40dac5138b2674ull);
}

TEST(SliceHash, SpreadsAcrossSlices)
{
    SliceHash hash(2);
    std::uint64_t counts[2] = {0, 0};
    for (PhysAddr pa = 0; pa < (1 << 22); pa += 64)
        ++counts[hash.slice(pa)];
    double ratio = static_cast<double>(counts[0]) /
                   static_cast<double>(counts[0] + counts[1]);
    EXPECT_NEAR(ratio, 0.5, 0.05);
}

TEST(SliceHash, LowBitsDoNotAffectSlice)
{
    // The masks only tap bits >= 6, so a line's bytes share a slice.
    SliceHash hash(4);
    for (PhysAddr base = 0; base < (1 << 20); base += 4096) {
        unsigned s = hash.slice(base);
        EXPECT_EQ(hash.slice(base + 63), s);
    }
}

TEST(Cache, MissThenHit)
{
    Cache cache(smallCache(), "t");
    EXPECT_FALSE(cache.access(0x1000));
    cache.fill(0x1000);
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1008));  // same line
    EXPECT_FALSE(cache.access(0x1040)); // next line
}

TEST(Cache, FillEvictsWhenSetFull)
{
    Cache cache(smallCache(4, 16));
    // 5 lines in the same set (stride = sets * 64).
    std::uint64_t stride = 16 * 64;
    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(cache.fill(i * stride).has_value());
    auto evicted = cache.fill(4 * stride);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 0u);  // LRU
    EXPECT_FALSE(cache.contains(0));
    EXPECT_TRUE(cache.contains(4 * stride));
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache cache(smallCache(), "t");
    cache.fill(0x2000);
    EXPECT_TRUE(cache.invalidate(0x2000));
    EXPECT_FALSE(cache.contains(0x2000));
    EXPECT_FALSE(cache.invalidate(0x2000));
}

TEST(Cache, ValidLinesCounts)
{
    Cache cache(smallCache(), "t");
    EXPECT_EQ(cache.validLines(), 0u);
    cache.fill(0);
    cache.fill(64);
    cache.fill(128);
    EXPECT_EQ(cache.validLines(), 3u);
    cache.flushAll();
    EXPECT_EQ(cache.validLines(), 0u);
}

TEST(Cache, GlobalSetIncludesSlice)
{
    Cache cache(smallCache(4, 16, 2));
    bool sawDifferent = false;
    for (PhysAddr pa = 0; pa < (1 << 20); pa += 1024) {
        std::uint64_t gs = cache.globalSet(pa);
        EXPECT_LT(gs, 32u);
        if (gs >= 16)
            sawDifferent = true;
    }
    EXPECT_TRUE(sawDifferent);
}

TEST(Cache, SetIndexUsesLineBits)
{
    Cache cache(smallCache(4, 16));
    EXPECT_EQ(cache.setIndex(0), 0u);
    EXPECT_EQ(cache.setIndex(64), 1u);
    EXPECT_EQ(cache.setIndex(64 * 16), 0u);
}

struct HierarchyFixture : public ::testing::Test
{
    HierarchyFixture()
    {
        geometry.sizeBytes = 64ull << 20;
        geometry.banks = 32;
        geometry.rowBytes = 8192;
        mem = std::make_unique<PhysicalMemory>(geometry.sizeBytes);
        DisturbanceConfig dc;
        dc.refreshWindowCycles = 1'000'000;
        dram = std::make_unique<Dram>(geometry, DramTiming{100, 150, 200},
                                      dc, *mem);
        config.l1d = {16, 2, 1, 4, ReplacementKind::Lru};
        config.l2 = {32, 4, 1, 12, ReplacementKind::Lru};
        config.llc = {64, 8, 1, 30, ReplacementKind::Lru};
        caches = std::make_unique<CacheHierarchy>(config, *dram);
    }

    DramGeometry geometry;
    CacheHierarchyConfig config;
    std::unique_ptr<PhysicalMemory> mem;
    std::unique_ptr<Dram> dram;
    std::unique_ptr<CacheHierarchy> caches;
};

TEST_F(HierarchyFixture, ColdMissGoesToDram)
{
    auto r = caches->access(0x10000, 0);
    EXPECT_EQ(r.servedBy, ServedBy::Dram);
    EXPECT_GE(r.latency, 100u);
}

TEST_F(HierarchyFixture, SecondAccessHitsL1)
{
    caches->access(0x10000, 0);
    auto r = caches->access(0x10000, 10);
    EXPECT_EQ(r.servedBy, ServedBy::L1);
    EXPECT_EQ(r.latency, config.l1d.latency);
}

TEST_F(HierarchyFixture, LatencyOrderingAcrossLevels)
{
    caches->access(0x20000, 0);
    Cycles l1 = caches->access(0x20000, 1).latency;
    // Evict from L1 only by filling its set.
    std::uint64_t l1Stride = 16 * 64;
    caches->access(0x20000 + l1Stride, 2);
    caches->access(0x20000 + 2 * l1Stride, 3);
    auto r = caches->access(0x20000, 4);
    EXPECT_GT(r.latency, l1);
    EXPECT_NE(r.servedBy, ServedBy::Dram);
}

TEST_F(HierarchyFixture, InclusionL1SubsetOfLlc)
{
    // Property: after arbitrary traffic, every L1/L2 line is in LLC.
    Rng rng(3);
    std::vector<PhysAddr> addrs;
    for (int i = 0; i < 400; ++i) {
        PhysAddr pa = (rng.below(1 << 18)) & ~63ull;
        addrs.push_back(pa);
        caches->access(pa, i);
    }
    for (PhysAddr pa : addrs) {
        if (caches->l1d().contains(pa) || caches->l2().contains(pa)) {
            EXPECT_TRUE(caches->llc().contains(pa))
                << "inclusion violated for 0x" << std::hex << pa;
        }
    }
}

TEST_F(HierarchyFixture, LlcEvictionBackInvalidates)
{
    // Fill one LLC set past capacity; the displaced line must leave
    // L1 and L2 as well.
    std::uint64_t llcStride = 64 * 64;  // 64 sets
    PhysAddr victim = 0x40000;
    caches->access(victim, 0);
    ASSERT_TRUE(caches->l1d().contains(victim));
    for (unsigned i = 1; i <= 8; ++i)
        caches->access(victim + i * llcStride, i);
    EXPECT_FALSE(caches->llc().contains(victim));
    EXPECT_FALSE(caches->l1d().contains(victim));
    EXPECT_FALSE(caches->l2().contains(victim));
}

TEST_F(HierarchyFixture, EvictedLineRefetchesFromDram)
{
    std::uint64_t llcStride = 64 * 64;
    PhysAddr victim = 0x40000;
    caches->access(victim, 0);
    for (unsigned i = 1; i <= 8; ++i)
        caches->access(victim + i * llcStride, i);
    auto r = caches->access(victim, 100);
    EXPECT_EQ(r.servedBy, ServedBy::Dram);
}

TEST_F(HierarchyFixture, ClflushRemovesFromAllLevels)
{
    caches->access(0x30000, 0);
    caches->clflush(0x30000);
    EXPECT_FALSE(caches->l1d().contains(0x30000));
    EXPECT_FALSE(caches->l2().contains(0x30000));
    EXPECT_FALSE(caches->llc().contains(0x30000));
    auto r = caches->access(0x30000, 10);
    EXPECT_EQ(r.servedBy, ServedBy::Dram);
}

TEST_F(HierarchyFixture, LlcMissCounterTracksDramAccesses)
{
    std::uint64_t before = caches->llcMisses();
    caches->access(0x50000, 0);
    caches->access(0x50000, 1);
    EXPECT_EQ(caches->llcMisses(), before + 1);
}

} // namespace
} // namespace pth
