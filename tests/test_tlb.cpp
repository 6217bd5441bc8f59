/**
 * @file
 * TLB tests: linear set mapping (Gras et al.), two-level behaviour,
 * invalidation and flush semantics.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "tlb/tlb.hh"
#include "tlb/two_level_tlb.hh"

namespace pth
{
namespace
{

TlbLevelConfig
level(std::uint64_t sets, unsigned ways,
      ReplacementKind kind = ReplacementKind::Lru)
{
    return {sets, ways, kind};
}

TEST(Tlb, LinearSetMapping)
{
    Tlb tlb(level(16, 4));
    EXPECT_EQ(tlb.setOf(0), 0u);
    EXPECT_EQ(tlb.setOf(5), 5u);
    EXPECT_EQ(tlb.setOf(16), 0u);
    EXPECT_EQ(tlb.setOf(21), 5u);
}

TEST(Tlb, InsertThenLookup)
{
    Tlb tlb(level(16, 4));
    tlb.insert({100, 7, false});
    auto hit = tlb.lookup(100, false);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->pfn, 7u);
    EXPECT_FALSE(tlb.lookup(101, false).has_value());
}

TEST(Tlb, HugeAndRegularAreDistinct)
{
    Tlb tlb(level(16, 4));
    tlb.insert({100, 7, false});
    EXPECT_FALSE(tlb.lookup(100, true).has_value());
    tlb.insert({100, 9, true});
    EXPECT_EQ(tlb.lookup(100, true)->pfn, 9u);
    EXPECT_EQ(tlb.lookup(100, false)->pfn, 7u);
}

TEST(Tlb, ReinsertUpdatesInPlace)
{
    Tlb tlb(level(16, 4));
    tlb.insert({100, 7, false});
    tlb.insert({100, 8, false});
    EXPECT_EQ(tlb.validEntries(), 1u);
    EXPECT_EQ(tlb.lookup(100, false)->pfn, 8u);
}

TEST(Tlb, CongruentInsertsEvict)
{
    Tlb tlb(level(16, 4, ReplacementKind::Lru));
    // 5 translations in the same set (vpn stride 16).
    for (std::uint64_t i = 0; i < 5; ++i)
        tlb.insert({i * 16, i, false});
    EXPECT_FALSE(tlb.contains(0, false));  // LRU victim
    EXPECT_TRUE(tlb.contains(4 * 16, false));
}

TEST(Tlb, DifferentSetsDoNotInterfere)
{
    Tlb tlb(level(16, 4));
    tlb.insert({3, 1, false});
    for (std::uint64_t i = 0; i < 32; ++i)
        tlb.insert({4 + i * 16, i, false});  // set 4 only
    EXPECT_TRUE(tlb.contains(3, false));
}

TEST(Tlb, InvalidateIsExact)
{
    Tlb tlb(level(16, 4));
    tlb.insert({100, 7, false});
    tlb.insert({116, 8, false});
    tlb.invalidate(100, false);
    EXPECT_FALSE(tlb.contains(100, false));
    EXPECT_TRUE(tlb.contains(116, false));
}

TEST(Tlb, FlushAllEmpties)
{
    Tlb tlb(level(16, 4));
    for (std::uint64_t i = 0; i < 10; ++i)
        tlb.insert({i, i, false});
    tlb.flushAll();
    EXPECT_EQ(tlb.validEntries(), 0u);
}

/** Tlb::stateHash of an 8-set TLB of the given width after one fixed
 * sequence of inserts past capacity, hits, invalidations, a full
 * flush and a partial refill, so most slots end up holding the stale
 * entries the flush left behind. */
std::uint64_t
pinnedSequenceDigest(ReplacementKind kind, unsigned ways)
{
    Tlb tlb({8, ways, kind, 7});
    Rng rng(42);
    auto fill = [&](int n) {
        for (int i = 0; i < n; ++i) {
            VirtPage vpn = rng.below(96);
            bool huge = rng.chance(0.25);
            if (!tlb.lookup(vpn, huge))
                tlb.insert({vpn, rng.below(1 << 20), huge});
        }
    };
    fill(400);
    for (int i = 0; i < 24; ++i)
        tlb.invalidate(rng.below(96), false);
    fill(16);
    tlb.flushAll();
    fill(6);
    return tlb.stateHash();
}

TEST(TlbStateHash, PinnedPerPolicy)
{
    // Tlb::stateHash must stay byte-identical when the way array or a
    // policy is reworked. A drift fails here, at the structure that
    // caused it, not only in machine fingerprints.
    EXPECT_EQ(pinnedSequenceDigest(ReplacementKind::Lru, 4),
              0xa263df45a81d0fb0ull);
    EXPECT_EQ(pinnedSequenceDigest(ReplacementKind::TreePlru, 4),
              0xe08c70db3dabf979ull);
    EXPECT_EQ(pinnedSequenceDigest(ReplacementKind::Aging, 4),
              0x77073d16b70b9e2aull);
}

TEST(TlbStateHash, PinnedAtOneFullAgeWord)
{
    // 8 ways fill exactly one word of Aging's eight-lane age rows: the
    // lane boundary with no padding lanes.
    EXPECT_EQ(pinnedSequenceDigest(ReplacementKind::Lru, 8),
              0x4e3cf379bef9c62dull);
    EXPECT_EQ(pinnedSequenceDigest(ReplacementKind::TreePlru, 8),
              0x60c1494f5d67fab3ull);
    EXPECT_EQ(pinnedSequenceDigest(ReplacementKind::Aging, 8),
              0x93b9ad8eb3f30689ull);
}

TEST(TlbDeathTest, ZeroWaysIsFatal)
{
    // A 0-way TLB must fail at construction, not crash on its first
    // insert.
    EXPECT_DEATH(Tlb{level(16, 0)}, "1 to 64 ways");
}

TEST(TlbStateHash, FlushedSlotsStillFeedTheDigest)
{
    // Invalidation clears only the valid bit: two flushed TLBs that
    // held different translations hash differently, and both hashes
    // are pinned.
    Tlb a(level(16, 4));
    Tlb b(level(16, 4));
    a.insert({100, 7, false});
    b.insert({100, 8, false});
    a.flushAll();
    b.flushAll();
    EXPECT_EQ(a.validEntries(), 0u);
    EXPECT_NE(a.stateHash(), b.stateHash());
    EXPECT_EQ(a.stateHash(), 0x24f0df01b2971354ull);
    EXPECT_EQ(b.stateHash(), 0x51ca81893ecab437ull);
}

TEST(TwoLevelTlb, MissInBothReportsMiss)
{
    TwoLevelTlb tlb(TlbConfig{});
    auto r = tlb.lookup(42, false);
    EXPECT_FALSE(r.hit);
    EXPECT_GT(r.latency, 0u);  // probed the sTLB
}

TEST(TwoLevelTlb, InsertFillsBothLevels)
{
    TwoLevelTlb tlb(TlbConfig{});
    tlb.fill({42, 7, false});
    EXPECT_TRUE(tlb.l1().contains(42, false));
    EXPECT_TRUE(tlb.l2().contains(42, false));
}

TEST(TwoLevelTlb, L1HitIsFree)
{
    TwoLevelTlb tlb(TlbConfig{});
    tlb.fill({42, 7, false});
    auto r = tlb.lookup(42, false);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.latency, 0u);
}

TEST(TwoLevelTlb, L2HitPromotesToL1)
{
    TwoLevelTlb tlb(TlbConfig{});
    tlb.fill({42, 7, false});
    tlb.l1().invalidate(42, false);
    auto r = tlb.lookup(42, false);
    EXPECT_TRUE(r.hit);
    EXPECT_GT(r.latency, 0u);
    EXPECT_TRUE(tlb.l1().contains(42, false));
}

TEST(TwoLevelTlb, InvalidateDropsBothLevels)
{
    TwoLevelTlb tlb(TlbConfig{});
    tlb.fill({42, 7, false});
    tlb.invalidate(42, false);
    EXPECT_FALSE(tlb.contains(42, false));
}

TEST(TwoLevelTlb, TotalEntriesMatchesGeometry)
{
    TlbConfig config;
    config.l1d = {16, 4, ReplacementKind::Lru};
    config.l2s = {128, 4, ReplacementKind::Lru};
    TwoLevelTlb tlb(config);
    EXPECT_EQ(tlb.totalEntries(), 16 * 4 + 128 * 4u);
}

} // namespace
} // namespace pth
