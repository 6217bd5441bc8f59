/**
 * @file
 * Tests for the DRAM device: row-buffer timing, refresh-window
 * disturbance accounting, flip orientation (true/anti cells), and the
 * equivalence of detailed and bulk (extrapolated) hammering.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.hh"
#include "dram/dram.hh"
#include "mem/physical_memory.hh"

namespace pth
{
namespace
{

struct DramFixture : public ::testing::Test
{
    DramFixture()
    {
        geometry.sizeBytes = 256ull << 20;
        geometry.banks = 32;
        geometry.rowBytes = 8192;
        timing = {100, 150, 200};
        disturbance.refreshWindowCycles = 1'000'000;
        disturbance.weakRowProbability = 0.05;
        disturbance.thresholdMin = 1000;
        disturbance.thresholdMax = 1200;
        disturbance.seed = 0xd0d0;
        mem = std::make_unique<PhysicalMemory>(geometry.sizeBytes);
        dram = std::make_unique<Dram>(geometry, timing, disturbance, *mem);
    }

    /** First row >= startRow in bank 0 that is weak / not weak. */
    std::uint64_t
    findRow(bool weak, std::uint64_t startRow = 1)
    {
        for (std::uint64_t row = startRow; row < geometry.rows() - 2;
             ++row)
            if (dram->vulnerability().rowIsWeak(0, row) == weak)
                return row;
        return 0;
    }

    /** First weak row >= startRow in bank 0 holding an anti cell (the
     * orientation that flips in zero-filled memory). */
    std::uint64_t
    findAntiRow(std::uint64_t startRow = 1)
    {
        for (std::uint64_t row = startRow; row < geometry.rows() - 2;
             ++row)
            for (const WeakCell &cell :
                 dram->vulnerability().weakCells(0, row))
                if (!cell.trueCell)
                    return row;
        return 0;
    }

    PhysAddr
    addrOf(unsigned bank, std::uint64_t row, std::uint64_t col = 0)
    {
        return dram->mapping().compose({bank, row, col});
    }

    DramGeometry geometry;
    DramTiming timing;
    DisturbanceConfig disturbance;
    std::unique_ptr<PhysicalMemory> mem;
    std::unique_ptr<Dram> dram;
};

TEST_F(DramFixture, FirstAccessActivatesClosedBank)
{
    auto r = dram->access(addrOf(0, 10), 0);
    EXPECT_EQ(r.latency, timing.rowClosed);
    EXPECT_TRUE(r.activated);
    EXPECT_FALSE(r.rowHit);
}

TEST_F(DramFixture, SameRowHitsRowBuffer)
{
    dram->access(addrOf(0, 10), 0);
    auto r = dram->access(addrOf(0, 10, 128), 10);
    EXPECT_EQ(r.latency, timing.rowHit);
    EXPECT_TRUE(r.rowHit);
    EXPECT_FALSE(r.activated);
}

TEST_F(DramFixture, DifferentRowSameBankConflicts)
{
    dram->access(addrOf(0, 10), 0);
    auto r = dram->access(addrOf(0, 11), 10);
    EXPECT_EQ(r.latency, timing.rowConflict);
    EXPECT_TRUE(r.activated);
}

TEST_F(DramFixture, DifferentBanksDoNotConflict)
{
    dram->access(addrOf(0, 10), 0);
    auto r = dram->access(addrOf(1, 11), 10);
    EXPECT_EQ(r.latency, timing.rowClosed);
}

TEST_F(DramFixture, AlternatingRowsAlwaysActivate)
{
    // The double-sided hammering pattern: every access activates.
    PhysAddr a = addrOf(0, 20);
    PhysAddr b = addrOf(0, 22);
    std::uint64_t before = dram->totalActivations();
    for (int i = 0; i < 100; ++i) {
        dram->access(a, i * 10);
        dram->access(b, i * 10 + 5);
    }
    EXPECT_EQ(dram->totalActivations() - before, 200u);
}

TEST_F(DramFixture, BulkHammerFlipsWeakNeighbour)
{
    std::uint64_t victim = findRow(true);
    ASSERT_GT(victim, 0u);
    auto flips = dram->hammerBulk(0, {victim - 1, victim + 1},
                                  disturbance.thresholdMax + 1, 1);
    EXPECT_FALSE(flips.empty());
    for (const FlipEvent &f : flips) {
        EXPECT_EQ(f.bank, 0u);
        EXPECT_EQ(f.row, victim);
    }
}

TEST_F(DramFixture, BulkHammerBelowThresholdNoFlips)
{
    std::uint64_t victim = findRow(true);
    auto flips = dram->hammerBulk(0, {victim - 1, victim + 1},
                                  disturbance.thresholdMin / 2 - 1, 4);
    EXPECT_TRUE(flips.empty());
}

TEST_F(DramFixture, SingleSidedNeedsFullThreshold)
{
    // One aggressor contributes half the disturbance of double-sided.
    std::uint64_t victim = findRow(true);
    auto cells = dram->vulnerability().weakCells(0, victim);
    ASSERT_FALSE(cells.empty());
    auto none = dram->hammerBulk(0, {victim - 1},
                                 disturbance.thresholdMin - 1, 1);
    EXPECT_TRUE(none.empty());
    auto some = dram->hammerBulk(0, {victim - 1},
                                 disturbance.thresholdMax + 1, 1);
    EXPECT_FALSE(some.empty());
}

TEST_F(DramFixture, TrueCellsOnlyDischarge)
{
    std::uint64_t victim = findRow(true);
    // Prefill the victim row with all-ones so true cells can flip.
    for (PhysFrame f : dram->mapping().framesInRow(0, victim))
        mem->fillFramePattern(f, ~0ull);

    auto flips = dram->hammerBulk(0, {victim - 1, victim + 1},
                                  disturbance.thresholdMax + 1, 1);
    for (const FlipEvent &f : flips) {
        // All-ones data: only true cells (1 -> 0) may flip.
        EXPECT_TRUE(f.wasOne);
        EXPECT_EQ((mem->read8(f.address) >> f.bitInByte) & 1, 0u);
    }
}

TEST_F(DramFixture, AntiCellsOnlyCharge)
{
    std::uint64_t victim = findRow(true);
    // Zero-filled rows: only anti cells (0 -> 1) may flip.
    auto flips = dram->hammerBulk(0, {victim - 1, victim + 1},
                                  disturbance.thresholdMax + 1, 1);
    for (const FlipEvent &f : flips) {
        EXPECT_FALSE(f.wasOne);
        EXPECT_EQ((mem->read8(f.address) >> f.bitInByte) & 1, 1u);
    }
}

TEST_F(DramFixture, CellsFlipAtMostOnce)
{
    std::uint64_t victim = findRow(true);
    auto first = dram->hammerBulk(0, {victim - 1, victim + 1},
                                  disturbance.thresholdMax + 1, 1);
    auto second = dram->hammerBulk(0, {victim - 1, victim + 1},
                                   disturbance.thresholdMax + 1, 1);
    EXPECT_FALSE(first.empty());
    EXPECT_TRUE(second.empty());
}

TEST_F(DramFixture, RefreshWindowResetsDisturbance)
{
    std::uint64_t victim = findRow(true);
    PhysAddr a = addrOf(0, victim - 1);
    PhysAddr b = addrOf(0, victim + 1);
    // Spread the activations over many refresh windows: no single
    // window accumulates the threshold, so nothing flips.
    Cycles window = disturbance.refreshWindowCycles;
    for (std::uint64_t i = 0; i < 2000; ++i) {
        Cycles t = i * (window / 10);
        dram->access(a, t);
        dram->access(b, t + 1);
    }
    EXPECT_EQ(dram->totalFlips(), 0u);
}

TEST_F(DramFixture, DetailedHammeringAlsoFlips)
{
    // The detailed per-access path must produce the same flips the
    // bulk path does when the rate is equivalent.
    std::uint64_t victim = findRow(true);
    PhysAddr a = addrOf(0, victim - 1);
    PhysAddr b = addrOf(0, victim + 1);
    // All activations inside one refresh window, above threshold.
    for (std::uint64_t i = 0; i <= disturbance.thresholdMax; ++i) {
        dram->access(a, i * 2);
        dram->access(b, i * 2 + 1);
    }
    EXPECT_GT(dram->totalFlips(), 0u);
}

TEST_F(DramFixture, DrainFlipsEmptiesQueue)
{
    std::uint64_t victim = findRow(true);
    dram->hammerBulk(0, {victim - 1, victim + 1},
                     disturbance.thresholdMax + 1, 1);
    auto drained = dram->drainFlips();
    EXPECT_FALSE(drained.empty());
    EXPECT_TRUE(dram->drainFlips().empty());
}

TEST_F(DramFixture, FlipsAreMonotoneInActivationCount)
{
    // Property: more activations can only flip a superset of cells.
    std::uint64_t victim = findRow(true);
    for (std::uint64_t acts :
         {disturbance.thresholdMin - 1, disturbance.thresholdMin,
          disturbance.thresholdMax, disturbance.thresholdMax * 2}) {
        DramGeometry g = geometry;
        PhysicalMemory freshMem(g.sizeBytes);
        Dram freshDram(g, timing, disturbance, freshMem);
        auto flips = freshDram.hammerBulk(0, {victim - 1, victim + 1},
                                          acts / 2, 1);
        std::size_t expectedAtLeast = 0;
        for (const WeakCell &cell :
             freshDram.vulnerability().weakCells(0, victim)) {
            if (cell.threshold <= acts && !cell.trueCell)
                ++expectedAtLeast;  // zero-filled memory: anti cells
        }
        EXPECT_EQ(flips.size(), expectedAtLeast);
    }
}

TEST_F(DramFixture, StateHashSeesFlipModelAccounting)
{
    // Identical single access, placed in different refresh windows:
    // every visible counter matches (one activation, no row hits, the
    // same open row), but the in-window disturbance accounting does
    // not — replay from here flips at different activation counts.
    // Pins Dram::stateHash ignoring FlipModel state.
    std::uint64_t row = findRow(false);
    PhysicalMemory memB(geometry.sizeBytes);
    Dram other(geometry, timing, disturbance, memB);
    PhysicalMemory memC(geometry.sizeBytes);
    Dram same(geometry, timing, disturbance, memC);

    dram->access(addrOf(0, row), 0);
    other.access(addrOf(0, row), disturbance.refreshWindowCycles);
    same.access(addrOf(0, row), 0);

    EXPECT_NE(dram->stateHash(), other.stateHash());
    EXPECT_EQ(dram->stateHash(), same.stateHash());
}

TEST_F(DramFixture, BulkHammerVictimsDeduped)
{
    // Regression: a victim sandwiched between two aggressors was
    // listed twice and ran the threshold check twice per call. The
    // flip list must hold each cell at most once.
    std::uint64_t victim = findRow(true, 30);
    ASSERT_GT(victim, 0u);
    auto flips = dram->hammerBulk(0, {victim - 1, victim + 1},
                                  disturbance.thresholdMax + 1, 1);
    ASSERT_FALSE(flips.empty());
    for (std::size_t i = 0; i < flips.size(); ++i)
        for (std::size_t j = i + 1; j < flips.size(); ++j)
            EXPECT_FALSE(flips[i].address == flips[j].address &&
                         flips[i].bitInByte == flips[j].bitInByte);
}

/**
 * Byte-identity pin: the default (DDR3) flip model must reproduce the
 * pre-FlipModel-interface Dram exactly. The fingerprint below was
 * captured by running this exact scenario against the monolithic
 * implementation (commit e723019); every FlipEvent field is folded in,
 * so order, addresses, orientations and counts are all pinned.
 */
TEST_F(DramFixture, DefaultModelByteIdenticalToPreRefactorSeed)
{
    auto fold = [](std::uint64_t h, const std::vector<FlipEvent> &flips) {
        for (const FlipEvent &f : flips) {
            h = hashCombine(h, f.address, f.bitInByte, f.wasOne ? 1 : 0);
            h = hashCombine(h, f.bank, f.row);
        }
        return h;
    };

    std::uint64_t h = 0x5eedf00d;
    std::uint64_t count = 0;

    // Bulk double-sided over the first 400 rows of banks 0..3, with
    // alternating data patterns so both cell orientations flip.
    for (unsigned bank = 0; bank < 4; ++bank) {
        for (std::uint64_t victim = 1; victim + 1 < 400; victim += 3) {
            if (bank & 1) {
                for (PhysFrame f :
                     dram->mapping().framesInRow(bank, victim))
                    mem->fillFramePattern(f, 0xa5a5a5a5a5a5a5a5ull);
            }
            auto flips = dram->hammerBulk(
                bank, {victim - 1, victim + 1}, 1100 + victim % 150, 1);
            count += flips.size();
            h = fold(h, flips);
        }
    }

    // Single-sided bulk.
    for (std::uint64_t agg = 400; agg < 500; ++agg) {
        auto flips = dram->hammerBulk(0, {agg}, 1250, 2);
        count += flips.size();
        h = fold(h, flips);
    }

    // Detailed per-access path inside one refresh window.
    PhysAddr a = addrOf(5, 600);
    PhysAddr b = addrOf(5, 602);
    for (std::uint64_t i = 0; i <= 1300; ++i) {
        dram->access(a, i * 2);
        dram->access(b, i * 2 + 1);
    }
    auto drained = dram->drainFlips();
    count += drained.size();
    h = fold(h, drained);

    EXPECT_EQ(count, 140u);
    EXPECT_EQ(dram->totalFlips(), 70u);
    EXPECT_EQ(h, 0x6e3e0f1f5bfb27f0ull);
}

/** Fixture over a non-default flip model, same geometry/seed. */
struct FlipModelFixture : public DramFixture
{
    void
    install(FlipModelKind kind)
    {
        disturbance.flipModel = kind;
        mem = std::make_unique<PhysicalMemory>(geometry.sizeBytes);
        dram = std::make_unique<Dram>(geometry, timing, disturbance, *mem);
    }
};

/**
 * Per-model pin: one scenario whose flips tell the four models apart,
 * so each model's own path is pinned (the DDR3 pin above cannot see
 * the others). It hammers many-sided (more aggressors than TRR tracker
 * entries, which the sampler cannot see), double-sided (which TRR
 * suppresses), and far-only at row +- 2 (which only Distance2 turns
 * into flips two rows away), in bulk and in detail, over codewords
 * wide enough to hold two weak cells so ECC surfaces some flips. Every
 * FlipEvent and the device's stateHash are folded in.
 */
TEST_F(FlipModelFixture, EveryModelPinnedOnItsOwnPath)
{
    struct Pin
    {
        FlipModelKind kind;
        std::uint64_t flips;
        std::uint64_t digest;
    };
    const Pin kPins[] = {
        {FlipModelKind::Ddr3Seeded, 320, 0x7b198e9c19978ee5ull},
        {FlipModelKind::Trr, 117, 0x33fd1b6a91947b59ull},
        {FlipModelKind::Distance2, 347, 0x54865ad4fdb2247aull},
        {FlipModelKind::Ecc, 42, 0x71dc5869407f0103ull},
    };

    disturbance.weakRowProbability = 0.25;
    disturbance.eccCodewordBytes = 1024;
    std::vector<std::uint64_t> digests;
    for (const Pin &pin : kPins) {
        install(pin.kind);
        std::uint64_t h = 0xf11bd1ff;
        auto fold = [&h](const std::vector<FlipEvent> &flips) {
            for (const FlipEvent &f : flips) {
                h = hashCombine(h, f.address, f.bitInByte, f.wasOne);
                h = hashCombine(h, f.bank, f.row);
            }
        };
        // Odd banks hold ones, so their true cells can discharge.
        auto fill = [this](unsigned bank, std::uint64_t lo,
                           std::uint64_t hi) {
            if (bank & 1)
                for (std::uint64_t row = lo; row < hi; ++row)
                    for (PhysFrame f :
                         dram->mapping().framesInRow(bank, row))
                        mem->fillFramePattern(f, 0xffffffffffffffffull);
        };

        for (unsigned bank = 0; bank < 6; ++bank) {
            fill(bank, 0, 400);
            // Many-sided: six aggressors, every second row.
            for (std::uint64_t base = 2; base + 12 < 200; base += 12)
                fold(dram->hammerBulk(
                    bank,
                    {base, base + 2, base + 4, base + 6, base + 8,
                     base + 10},
                    600 + base % 100, 1));
            // Double-sided.
            for (std::uint64_t victim = 201; victim + 1 < 300; victim += 3)
                fold(dram->hammerBulk(bank, {victim - 1, victim + 1},
                                      1100 + victim % 150, 1));
            // Far-only: aggressors two rows either side of the victim,
            // hard enough that Distance2 also flips rows four away.
            for (std::uint64_t victim = 304; victim + 4 < 400;
                 victim += 9)
                fold(dram->hammerBulk(bank, {victim - 2, victim + 2},
                                      4000 + victim % 800, 1));
        }

        // Detailed, inside one refresh window: five-sided in bank 7,
        // double-sided in bank 9, far-only in bank 11.
        fill(7, 595, 615);
        fill(9, 695, 710);
        fill(11, 795, 810);
        Cycles now = 0;
        for (unsigned round = 0; round < 2400; ++round) {
            for (std::uint64_t row : {600, 602, 604, 606, 608})
                dram->access(addrOf(7, row), now++);
            for (std::uint64_t row : {700, 702})
                dram->access(addrOf(9, row), now++);
            for (std::uint64_t row : {800, 804})
                dram->access(addrOf(11, row), now++);
        }
        ASSERT_LT(now, disturbance.refreshWindowCycles);
        fold(dram->drainFlips());

        h = hashCombine(h, dram->totalFlips(), dram->stateHash());
        EXPECT_EQ(dram->totalFlips(), pin.flips) << dram->flipModel().name();
        EXPECT_EQ(h, pin.digest) << dram->flipModel().name();
        EXPECT_GT(dram->totalFlips(), 0u) << dram->flipModel().name();
        digests.push_back(h);
    }
    std::sort(digests.begin(), digests.end());
    EXPECT_EQ(std::unique(digests.begin(), digests.end()), digests.end());
}

TEST_F(FlipModelFixture, TrrSuppressesDoubleSidedBulk)
{
    // The same double-sided pattern that flips under DDR3...
    std::uint64_t victim = findRow(true);
    auto baseline = dram->hammerBulk(0, {victim - 1, victim + 1},
                                     disturbance.thresholdMax + 1, 1);
    ASSERT_FALSE(baseline.empty());

    // ...is fully mitigated by the TRR sampler on the same config.
    install(FlipModelKind::Trr);
    auto mitigated = dram->hammerBulk(0, {victim - 1, victim + 1},
                                      disturbance.thresholdMax + 1, 1);
    EXPECT_TRUE(mitigated.empty());
    EXPECT_EQ(dram->totalFlips(), 0u);
}

TEST_F(FlipModelFixture, TrrManySidedDefeatsSampler)
{
    install(FlipModelKind::Trr);
    std::uint64_t victim = findAntiRow(40);
    ASSERT_GT(victim, 0u);

    // More distinct aggressors than the 4 tracker entries: the
    // Misra-Gries counts never reach the service threshold, so the
    // full double-sided disturbance lands on the victim.
    std::vector<std::uint64_t> aggressors = {victim - 1, victim + 1};
    for (std::uint64_t decoy = 0; decoy < 6; ++decoy)
        aggressors.push_back(victim + 20 + 2 * decoy);
    auto flips = dram->hammerBulk(0, aggressors,
                                  disturbance.thresholdMax + 1, 1);
    bool victimFlipped = false;
    for (const FlipEvent &f : flips)
        victimFlipped |= f.row == victim;
    EXPECT_TRUE(victimFlipped);
}

TEST_F(FlipModelFixture, TrrSuppressesDoubleSidedDetailedPath)
{
    install(FlipModelKind::Trr);
    std::uint64_t victim = findRow(true);
    PhysAddr a = addrOf(0, victim - 1);
    PhysAddr b = addrOf(0, victim + 1);
    // All activations inside one refresh window, well above threshold
    // — flips under DDR3 (DetailedHammeringAlsoFlips), none here: the
    // sampler tracks both aggressors and keeps refreshing the victim.
    for (std::uint64_t i = 0; i <= disturbance.thresholdMax; ++i) {
        dram->access(a, i * 2);
        dram->access(b, i * 2 + 1);
    }
    EXPECT_EQ(dram->totalFlips(), 0u);
}

TEST_F(FlipModelFixture, Distance2FlipsTwoRowsAway)
{
    install(FlipModelKind::Distance2);
    // A weak victim with both aggressors two rows away: only the
    // attenuated far contribution reaches it.
    std::uint64_t victim = findAntiRow(60);
    ASSERT_GT(victim, 2u);
    std::uint64_t needed =
        disturbance.thresholdMax * kDistance2Divisor + 2;
    auto flips =
        dram->hammerBulk(0, {victim - 2, victim + 2}, needed / 2, 1);
    bool farVictim = false;
    for (const FlipEvent &f : flips)
        farVictim |= f.row == victim;
    EXPECT_TRUE(farVictim);

    // The DDR3 model sees nothing at distance 2 from the same rows.
    install(FlipModelKind::Ddr3Seeded);
    auto none = dram->hammerBulk(0, {victim - 2, victim + 2},
                                 needed / 2, 1);
    for (const FlipEvent &f : none)
        EXPECT_NE(f.row, victim);
}

TEST_F(FlipModelFixture, Distance2FarContributionIsAttenuated)
{
    install(FlipModelKind::Distance2);
    std::uint64_t victim = findRow(true, 90);
    ASSERT_GT(victim, 2u);
    // Below threshold * divisor the far pair must not flip anything.
    auto flips = dram->hammerBulk(0, {victim - 2, victim + 2},
                                  disturbance.thresholdMin / 2, 1);
    for (const FlipEvent &f : flips)
        EXPECT_NE(f.row, victim);
}

TEST_F(FlipModelFixture, Distance2DetailedPathReachesRowPlusTwo)
{
    install(FlipModelKind::Distance2);
    std::uint64_t victim = findAntiRow(120);
    ASSERT_GT(victim, 2u);
    PhysAddr a = addrOf(0, victim - 2);
    PhysAddr b = addrOf(0, victim + 2);
    std::uint64_t iterations =
        disturbance.thresholdMax * kDistance2Divisor;
    for (std::uint64_t i = 0; i <= iterations / 2 + 2; ++i) {
        dram->access(a, i * 2);
        dram->access(b, i * 2 + 1);
    }
    bool farVictim = false;
    for (const FlipEvent &f : dram->drainFlips())
        farVictim |= f.row == victim;
    EXPECT_TRUE(farVictim);
}

TEST_F(FlipModelFixture, EccCorrectsSingleCellPerCodeword)
{
    // One codeword per row: a weak row needs two tripped cells before
    // anything surfaces. Zero-filled memory trips anti cells only.
    disturbance.eccCodewordBytes = geometry.rowBytes;
    install(FlipModelKind::Ecc);
    const VulnerabilityModel &vuln = dram->vulnerability();

    auto antiCells = [&vuln](std::uint64_t row) {
        unsigned anti = 0;
        for (const WeakCell &cell : vuln.weakCells(0, row))
            anti += !cell.trueCell;
        return anti;
    };

    // The candidate's ±2 rows must be quiet: they are victims of the
    // same aggressor pair and would add their own codewords' flips.
    std::uint64_t loneRow = 0;
    std::uint64_t pairRow = 0;
    for (std::uint64_t row = 3; row + 3 < geometry.rows(); ++row) {
        if (vuln.rowIsWeak(0, row - 2) || vuln.rowIsWeak(0, row + 2))
            continue;
        unsigned anti = antiCells(row);
        if (anti == 1 && !loneRow)
            loneRow = row;
        if (anti >= 2 && !pairRow)
            pairRow = row;
        if (loneRow && pairRow)
            break;
    }
    ASSERT_GT(loneRow, 0u);
    ASSERT_GT(pairRow, 0u);

    // A single tripped cell stays corrected...
    auto lone = dram->hammerBulk(0, {loneRow - 1, loneRow + 1},
                                 disturbance.thresholdMax + 1, 1);
    EXPECT_TRUE(lone.empty());

    // ...while a second error in the word defeats the code: every
    // tripped cell of the word lands at once.
    auto pair = dram->hammerBulk(0, {pairRow - 1, pairRow + 1},
                                 disturbance.thresholdMax + 1, 1);
    EXPECT_EQ(pair.size(), antiCells(pairRow));
    for (const FlipEvent &f : pair)
        EXPECT_EQ(f.row, pairRow);
}

TEST_F(FlipModelFixture, EccLatentCellRestoredByRewriteDoesNotFlip)
{
    // A tripped-but-corrected cell whose word is rewritten has its
    // charge restored: when a second error later breaks the word, the
    // stale latent cell must not flip against its only direction.
    disturbance.eccCodewordBytes = geometry.rowBytes;
    install(FlipModelKind::Ecc);
    const VulnerabilityModel &vuln = dram->vulnerability();

    // A row (with quiet ±2 neighbours) whose weakest anti cell trips
    // strictly before any other anti cell.
    std::uint64_t row = 0;
    WeakCell weakest{};
    for (std::uint64_t r = 3; r + 3 < geometry.rows() && !row; ++r) {
        if (vuln.rowIsWeak(0, r - 2) || vuln.rowIsWeak(0, r + 2))
            continue;
        std::vector<WeakCell> anti;
        for (const WeakCell &cell : vuln.weakCells(0, r))
            if (!cell.trueCell)
                anti.push_back(cell);
        if (anti.size() < 2)
            continue;
        std::sort(anti.begin(), anti.end(),
                  [](const WeakCell &a, const WeakCell &b) {
                      return a.threshold < b.threshold;
                  });
        if (anti[0].threshold < anti[1].threshold) {
            row = r;
            weakest = anti[0];
        }
    }
    ASSERT_GT(row, 0u);

    // Single-sided: disturbance equals acts exactly. Trip only the
    // weakest anti cell — latent, corrected, nothing surfaces.
    auto first = dram->hammerBulk(0, {row - 1}, weakest.threshold, 1);
    EXPECT_TRUE(first.empty());

    // Software rewrites the word: the latent cell now stores 1 and an
    // anti cell cannot charge any further.
    PhysAddr cellAddr =
        dram->mapping().compose({0, row, weakest.byteInRow});
    mem->write8(cellAddr, 0xff);

    // A second error defeats the code; the restored cell stays put.
    auto second = dram->hammerBulk(0, {row - 1},
                                   disturbance.thresholdMax + 1, 1);
    EXPECT_FALSE(second.empty());
    for (const FlipEvent &f : second)
        EXPECT_FALSE(f.address == cellAddr &&
                     f.bitInByte == weakest.bitInByte);
}

TEST_F(FlipModelFixture, ModelsReportTheirKind)
{
    EXPECT_EQ(dram->flipModel().kind(), FlipModelKind::Ddr3Seeded);
    EXPECT_STREQ(dram->flipModel().name(), "ddr3");
    install(FlipModelKind::Trr);
    EXPECT_STREQ(dram->flipModel().name(), "trr");
    install(FlipModelKind::Distance2);
    EXPECT_STREQ(dram->flipModel().name(), "distance2");
    install(FlipModelKind::Ecc);
    EXPECT_STREQ(dram->flipModel().name(), "ecc");
}

TEST(DramGeometryModels, SixteenKiBRowsAreFirstClass)
{
    // The DDR3 8 KiB row assumption is gone: a 16 KiB-row device
    // places weak cells over the whole row and flips in its far half.
    DramGeometry geometry;
    geometry.sizeBytes = 512ull << 20;
    geometry.banks = 32;
    geometry.rowBytes = 16384;
    DramTiming timing{100, 150, 200};
    DisturbanceConfig disturbance;
    disturbance.refreshWindowCycles = 1'000'000;
    disturbance.weakRowProbability = 0.2;
    disturbance.thresholdMin = 1000;
    disturbance.thresholdMax = 1200;
    disturbance.seed = 0xdd44;

    PhysicalMemory mem(geometry.sizeBytes);
    Dram dram(geometry, timing, disturbance, mem);
    EXPECT_EQ(dram.mapping().framesInRow(0, 1).size(), 4u);

    bool farHalf = false;
    std::uint64_t flips = 0;
    for (std::uint64_t victim = 1;
         victim + 1 < geometry.rows() && !farHalf; ++victim) {
        if (!dram.vulnerability().rowIsWeak(0, victim))
            continue;
        for (const FlipEvent &f :
             dram.hammerBulk(0, {victim - 1, victim + 1},
                             disturbance.thresholdMax + 1, 1)) {
            ++flips;
            std::uint64_t column =
                dram.mapping().decompose(f.address).column;
            EXPECT_LT(column, geometry.rowBytes);
            farHalf |= column >= 8192;
        }
    }
    EXPECT_GT(flips, 0u);
    EXPECT_TRUE(farHalf);
}

} // namespace
} // namespace pth
