/**
 * @file
 * Defense placement-contract tests, swept across all policies, plus
 * policy-specific invariants: CATT's guard rows, CTA's top-of-memory
 * true-cell L1PT zone, ZebRAM's even-row restriction.
 */

#include <gtest/gtest.h>

#include "dram/address_mapping.hh"
#include "dram/vulnerability_model.hh"
#include "kernel/defense.hh"

namespace pth
{
namespace
{

struct DefenseEnv
{
    DefenseEnv()
    {
        geometry.sizeBytes = 512ull << 20;
        geometry.banks = 32;
        geometry.rowBytes = 8192;
        mapping = std::make_unique<AddressMapping>(geometry);
        DisturbanceConfig dc;
        dc.weakRowProbability = 0.05;
        dc.trueCellFraction = 0.5;
        vuln = std::make_unique<VulnerabilityModel>(dc,
                                                    geometry.rowBytes);
    }

    std::uint64_t frames() const { return geometry.sizeBytes >> 12; }

    DramGeometry geometry;
    std::unique_ptr<AddressMapping> mapping;
    std::unique_ptr<VulnerabilityModel> vuln;
};

class DefenseParam : public ::testing::TestWithParam<DefenseKind>
{
  protected:
    DefenseEnv env;
};

TEST_P(DefenseParam, StateHashTracksAllocatorPosition)
{
    // Allocate one L1PT frame and free it again. The free-frame
    // population is back to the starting point, but cursor-based
    // zones (CTA's true-cell pool, ZebRAM) now sit at an advanced
    // cursor with a recycled-frame list, so they hand out frames in a
    // different order from a fresh defense — the digest must see
    // that. Buddy-backed policies coalesce back to exactly the
    // initial state and must digest equal. Pins Kernel::stateHash
    // ignoring allocator positions.
    Defense a(GetParam(), *env.mapping, *env.vuln, env.frames());
    Defense b(GetParam(), *env.mapping, *env.vuln, env.frames());
    ASSERT_EQ(a.stateHash(), b.stateHash());

    PhysFrame f = a.alloc(AllocIntent::PageTableL1, 1);
    ASSERT_NE(f, kInvalidFrame);
    a.free(f, AllocIntent::PageTableL1, 1);
    if (GetParam() == DefenseKind::Cta || GetParam() == DefenseKind::ZebRam)
        EXPECT_NE(a.stateHash(), b.stateHash());
    else
        EXPECT_EQ(a.stateHash(), b.stateHash());
}

TEST_P(DefenseParam, AllocationsRespectOwnPredicate)
{
    Defense defense(GetParam(), *env.mapping, *env.vuln, env.frames());
    for (AllocIntent intent :
         {AllocIntent::UserData, AllocIntent::PageTableL1,
          AllocIntent::PageTableUpper, AllocIntent::KernelData}) {
        for (int i = 0; i < 200; ++i) {
            PhysFrame f = defense.alloc(intent, 7);
            ASSERT_NE(f, kInvalidFrame);
            EXPECT_TRUE(defense.frameAllowed(intent, f))
                << defense.name() << " intent "
                << static_cast<int>(intent) << " frame " << f;
        }
    }
}

TEST_P(DefenseParam, NoDoubleAllocationAcrossIntents)
{
    Defense defense(GetParam(), *env.mapping, *env.vuln, env.frames());
    std::set<PhysFrame> seen;
    for (int i = 0; i < 500; ++i) {
        AllocIntent intent = static_cast<AllocIntent>(i % 4);
        PhysFrame f = defense.alloc(intent, i % 3);
        ASSERT_NE(f, kInvalidFrame);
        EXPECT_TRUE(seen.insert(f).second);
    }
}

TEST_P(DefenseParam, FreedFramesAreReusable)
{
    Defense defense(GetParam(), *env.mapping, *env.vuln, env.frames());
    PhysFrame f = defense.alloc(AllocIntent::UserData, 1);
    defense.free(f, AllocIntent::UserData, 1);
    PhysFrame g = defense.alloc(AllocIntent::UserData, 1);
    EXPECT_EQ(f, g);
}

INSTANTIATE_TEST_SUITE_P(AllDefenses, DefenseParam,
                         ::testing::Values(DefenseKind::None,
                                           DefenseKind::Catt,
                                           DefenseKind::RipRh,
                                           DefenseKind::Cta,
                                           DefenseKind::ZebRam));

TEST(CattDefense, UserRowsNeverAdjacentToKernelRows)
{
    DefenseEnv env;
    Defense defense(DefenseKind::Catt, *env.mapping, *env.vuln, env.frames());
    // Collect row extremes per bank for both zones.
    std::uint64_t maxKernelRow = 0;
    std::uint64_t minUserRow = ~0ull;
    for (int i = 0; i < 3000; ++i) {
        PhysFrame k = defense.alloc(AllocIntent::PageTableL1, 0);
        PhysFrame u = defense.alloc(AllocIntent::UserData, 0);
        maxKernelRow = std::max(
            maxKernelRow, env.mapping->decompose(k << kPageShift).row);
        minUserRow = std::min(
            minUserRow, env.mapping->decompose(u << kPageShift).row);
    }
    // At least one full guard row separates the zones.
    EXPECT_GT(minUserRow, maxKernelRow + 1);
}

TEST(CattDefense, UserDataNeverEntersKernelZone)
{
    DefenseEnv env;
    Defense defense(DefenseKind::Catt, *env.mapping, *env.vuln, env.frames());
    PhysFrame k = defense.alloc(AllocIntent::KernelData, 0);
    EXPECT_FALSE(defense.frameAllowed(AllocIntent::UserData, k));
    // Kernel allocations prefer their own zone while it lasts...
    PhysFrame pt = defense.alloc(AllocIntent::PageTableL1, 0);
    PhysFrame u = defense.alloc(AllocIntent::UserData, 0);
    EXPECT_LT(pt, u);
}

TEST(CattDefense, ExhaustionSpillsKernelIntoUserZone)
{
    // The CATTmew fallback the paper's CATT attack provokes: once the
    // kernel zone runs dry, page tables land in user memory.
    DefenseEnv env;
    Defense defense(DefenseKind::Catt, *env.mapping, *env.vuln, env.frames());
    std::uint64_t zone = defense.zoneFrames(AllocIntent::KernelData);
    for (std::uint64_t i = 0; i < zone; ++i)
        defense.alloc(AllocIntent::KernelData, 0);
    PhysFrame spilled = defense.alloc(AllocIntent::PageTableL1, 0);
    ASSERT_NE(spilled, kInvalidFrame);
    EXPECT_TRUE(defense.frameAllowed(AllocIntent::UserData, spilled));
}

TEST(RipRhDefense, DifferentOwnersGetDifferentRegions)
{
    DefenseEnv env;
    Defense defense(DefenseKind::RipRh, *env.mapping, *env.vuln, env.frames());
    PhysFrame a = defense.alloc(AllocIntent::UserData, 1);
    PhysFrame b = defense.alloc(AllocIntent::UserData, 2);
    // Frames from distinct partitions are far apart.
    std::uint64_t distance = a > b ? a - b : b - a;
    EXPECT_GT(distance, 256u);
}

TEST(RipRhDefense, KernelNotProtected)
{
    // RIP-RH segregates users only; page tables share the kernel pool.
    DefenseEnv env;
    Defense defense(DefenseKind::RipRh, *env.mapping, *env.vuln, env.frames());
    PhysFrame pt = defense.alloc(AllocIntent::PageTableL1, 1);
    PhysFrame kd = defense.alloc(AllocIntent::KernelData, 2);
    EXPECT_TRUE(defense.frameAllowed(AllocIntent::KernelData, pt));
    EXPECT_TRUE(defense.frameAllowed(AllocIntent::PageTableL1, kd));
    EXPECT_LT(pt, defense.zoneFrames(AllocIntent::KernelData) + 256);
}

TEST(CtaDefense, L1ptsLiveAboveEveryUserFrame)
{
    DefenseEnv env;
    Defense defense(DefenseKind::Cta, *env.mapping, *env.vuln, env.frames());
    PhysFrame maxUser = 0;
    PhysFrame minPt = ~0ull;
    for (int i = 0; i < 2000; ++i) {
        maxUser = std::max(maxUser,
                           defense.alloc(AllocIntent::UserData, 0));
        minPt = std::min(minPt,
                         defense.alloc(AllocIntent::PageTableL1, 0));
    }
    EXPECT_GT(minPt, maxUser);
}

TEST(CtaDefense, L1ptRowsContainOnlyTrueCells)
{
    DefenseEnv env;
    Defense defense(DefenseKind::Cta, *env.mapping, *env.vuln, env.frames());
    for (int i = 0; i < 2000; ++i) {
        PhysFrame f = defense.alloc(AllocIntent::PageTableL1, 0);
        DramLocation loc = env.mapping->decompose(f << kPageShift);
        EXPECT_TRUE(env.vuln->rowHasOnlyTrueCells(loc.bank, loc.row))
            << "frame " << f << " row has anti cells";
    }
}

TEST(CtaDefense, TrueCellFlipCannotReachPtZone)
{
    // The CTA security argument: clearing any PFN bit of an entry that
    // points below the PT zone keeps it below the PT zone.
    DefenseEnv env;
    Defense defense(DefenseKind::Cta, *env.mapping, *env.vuln, env.frames());
    PhysFrame pt = defense.alloc(AllocIntent::PageTableL1, 0);
    for (int i = 0; i < 500; ++i) {
        PhysFrame user = defense.alloc(AllocIntent::UserData, 0);
        for (unsigned bitPos = 0; bitPos < 21; ++bitPos) {
            PhysFrame flipped = user & ~(1ull << bitPos);  // 1 -> 0 only
            EXPECT_LT(flipped, pt);
        }
    }
}

TEST(ZebRamDefense, OnlyEvenRowsAllocated)
{
    DefenseEnv env;
    Defense defense(DefenseKind::ZebRam, *env.mapping, *env.vuln, env.frames());
    for (int i = 0; i < 2000; ++i) {
        PhysFrame f = defense.alloc(AllocIntent::UserData, 0);
        EXPECT_EQ(env.mapping->decompose(f << kPageShift).row % 2, 0u);
    }
}

TEST(ZebRamDefense, NeighboursOfDataRowsHoldNoData)
{
    // The zebra property: rows adjacent to any allocated row are never
    // allocatable.
    DefenseEnv env;
    Defense defense(DefenseKind::ZebRam, *env.mapping, *env.vuln, env.frames());
    PhysFrame f = defense.alloc(AllocIntent::PageTableL1, 0);
    DramLocation loc = env.mapping->decompose(f << kPageShift);
    for (long long delta : {-1ll, 1ll}) {
        DramLocation neighbour = loc;
        neighbour.row = loc.row + static_cast<std::uint64_t>(delta);
        PhysFrame nf =
            env.mapping->compose(neighbour) >> kPageShift;
        EXPECT_FALSE(defense.frameAllowed(AllocIntent::UserData, nf));
        EXPECT_FALSE(defense.frameAllowed(AllocIntent::PageTableL1, nf));
    }
}

TEST(DefenseNames, AllDistinct)
{
    std::set<std::string> names;
    for (DefenseKind kind :
         {DefenseKind::None, DefenseKind::Catt, DefenseKind::RipRh,
          DefenseKind::Cta, DefenseKind::ZebRam})
        names.insert(defenseKindName(kind));
    EXPECT_EQ(names.size(), 5u);
}

} // namespace
} // namespace pth
