/**
 * @file
 * Replacement-policy properties, swept across associativities.
 */

#include <gtest/gtest.h>

#include "cache/replacement_policy.hh"

namespace pth
{
namespace
{

class ReplacementParam
    : public ::testing::TestWithParam<std::tuple<ReplacementKind, unsigned>>
{
  protected:
    ReplacementKind kind() { return std::get<0>(GetParam()); }
    unsigned ways() { return std::get<1>(GetParam()); }
};

TEST_P(ReplacementParam, VictimAlwaysInRange)
{
    ReplacementPolicy policy(kind(), 4, ways(), 1);
    for (int i = 0; i < 500; ++i) {
        unsigned v = policy.victim(i % 4);
        EXPECT_LT(v, ways());
        policy.insert(i % 4, v);
    }
}

TEST_P(ReplacementParam, StateHashSeesMetadataAndRngPosition)
{
    // A copy starts digest-identical; one victim/insert round must
    // move the digest for every kind (age stamps, tree bits, or ages
    // and the RNG position).
    ReplacementPolicy policy(kind(), 4, ways(), 1);
    ReplacementPolicy copy = policy;
    ASSERT_EQ(policy.stateHash(), copy.stateHash());
    unsigned v = policy.victim(0);
    policy.insert(0, v);
    EXPECT_NE(policy.stateHash(), copy.stateHash());
    // Driven alike, the copy replays the original's victim choice.
    EXPECT_EQ(copy.victim(0), v);
}

TEST(ReplacementStateHash, LruTouchOrderChangesDigest)
{
    // Same set of touched ways in opposite order: the resident lines
    // are identical but the next victim differs, and the digest must
    // expose that. Pins the snapshot-audit gap where replacement
    // metadata was invisible to Cache/Tlb stateHash, so equal
    // fingerprints could still replay differently.
    ReplacementPolicy a(ReplacementKind::Lru, 1, 2, 1);
    ReplacementPolicy b(ReplacementKind::Lru, 1, 2, 1);
    a.touch(0, 0);
    a.touch(0, 1);
    b.touch(0, 1);
    b.touch(0, 0);
    EXPECT_NE(a.stateHash(), b.stateHash());
    EXPECT_NE(a.victim(0), b.victim(0));
}

TEST_P(ReplacementParam, SetsAreIndependent)
{
    ReplacementPolicy policy(kind(), 2, ways(), 1);
    // Drive set 0 hard; set 1's state must be untouched, so its first
    // victims mirror a fresh policy's.
    ReplacementPolicy fresh(kind(), 2, ways(), 1);
    for (int i = 0; i < 100; ++i)
        policy.insert(0, static_cast<unsigned>(i % ways()));
    // Replay identical operations on set 1 of both policies.
    std::vector<unsigned> a;
    std::vector<unsigned> b;
    for (int i = 0; i < 20; ++i) {
        unsigned va = policy.victim(1);
        policy.insert(1, va);
        a.push_back(va);
    }
    // Aging draws from one stream for all sets, so only compare the
    // deterministic kinds exactly.
    if (kind() == ReplacementKind::Lru ||
        kind() == ReplacementKind::TreePlru) {
        for (int i = 0; i < 20; ++i) {
            unsigned vb = fresh.victim(1);
            fresh.insert(1, vb);
            b.push_back(vb);
        }
        EXPECT_EQ(a, b);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, ReplacementParam,
    ::testing::Combine(::testing::Values(ReplacementKind::Lru,
                                         ReplacementKind::TreePlru,
                                         ReplacementKind::Aging),
                       ::testing::Values(4u, 8u, 12u, 16u)));

TEST(ReplacementDeathTest, MoreThan64WaysIsFatal)
{
    // Per-set valid masks, tree words and age rows hold at most 64
    // ways.
    EXPECT_DEATH((ReplacementPolicy{ReplacementKind::Lru, 1, 65, 1}),
                 "1 to 64 ways");
}

TEST(LruPolicy, EvictsLeastRecentlyUsed)
{
    ReplacementPolicy lru(ReplacementKind::Lru, 1, 4, 1);
    for (unsigned w = 0; w < 4; ++w)
        lru.insert(0, w);
    lru.touch(0, 0);  // way 1 is now LRU
    EXPECT_EQ(lru.victim(0), 1u);
    lru.touch(0, 1);
    EXPECT_EQ(lru.victim(0), 2u);
}

TEST(LruPolicy, RetainsMostRecentNLines)
{
    // Property: after touching ways in a known order, the victim
    // sequence is the reverse order.
    ReplacementPolicy lru(ReplacementKind::Lru, 1, 8, 1);
    for (unsigned w = 0; w < 8; ++w)
        lru.insert(0, w);
    std::vector<unsigned> touchOrder = {3, 1, 4, 0, 5, 2, 7, 6};
    for (unsigned w : touchOrder)
        lru.touch(0, w);
    EXPECT_EQ(lru.victim(0), 3u);
}

TEST(TreePlru, NeverEvictsJustTouchedWay)
{
    ReplacementPolicy plru(ReplacementKind::TreePlru, 1, 8, 1);
    for (unsigned w = 0; w < 8; ++w)
        plru.insert(0, w);
    for (int i = 0; i < 100; ++i) {
        unsigned touched = static_cast<unsigned>(i * 5 % 8);
        plru.touch(0, touched);
        EXPECT_NE(plru.victim(0), touched);
    }
}

TEST(TreePlru, NonPowerOfTwoWaysStayInRange)
{
    ReplacementPolicy plru(ReplacementKind::TreePlru, 1, 12, 1);
    for (int i = 0; i < 1000; ++i) {
        unsigned v = plru.victim(0);
        EXPECT_LT(v, 12u);
        plru.insert(0, v);
    }
}

TEST(Aging, FreshlyTouchedWaySurvivesAssociativityFills)
{
    // The Figure-3 mechanism: evicting a just-touched entry takes
    // noticeably more fills than the associativity.
    ReplacementPolicy aging(ReplacementKind::Aging, 1, 4, 99);
    unsigned evictedWithinWays = 0;
    const int trials = 300;
    for (int t = 0; t < trials; ++t) {
        aging.touch(0, 0);
        for (int f = 0; f < 4; ++f) {
            unsigned v = aging.victim(0);
            if (v == 0) {
                ++evictedWithinWays;
                break;
            }
            aging.insert(0, v);
        }
    }
    // Eviction within `ways` fills should be rare.
    EXPECT_LT(evictedWithinWays, 60u);
}

TEST(Aging, EventuallyEvictsEverything)
{
    ReplacementPolicy aging(ReplacementKind::Aging, 1, 4, 100);
    aging.touch(0, 2);
    bool evicted = false;
    for (int f = 0; f < 64 && !evicted; ++f) {
        unsigned v = aging.victim(0);
        evicted = (v == 2);
        aging.insert(0, v);
    }
    EXPECT_TRUE(evicted);
}

} // namespace
} // namespace pth
