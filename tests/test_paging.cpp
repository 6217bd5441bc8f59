/**
 * @file
 * Page-table, paging-structure-cache and walker tests — including the
 * PThammer fast path: with a PDE-cache hit, a walk performs exactly
 * one fetch (the Level-1 PTE).
 */

#include <gtest/gtest.h>

#include "cache/cache_hierarchy.hh"
#include "dram/dram.hh"
#include "mem/physical_memory.hh"
#include "paging/page_table_walker.hh"
#include "paging/page_tables.hh"
#include "paging/paging_structure_cache.hh"
#include "paging/pte.hh"

namespace pth
{
namespace
{

TEST(Pte, EncodeDecode)
{
    std::uint64_t e = makePte(0x1234, true, true, false);
    EXPECT_TRUE(ptePresent(e));
    EXPECT_FALSE(pteHuge(e));
    EXPECT_EQ(pteFrame(e), 0x1234u);
    EXPECT_TRUE(e & kPteUser);
    EXPECT_TRUE(e & kPteWritable);
}

TEST(Pte, IndexExtraction)
{
    VirtAddr va = (3ull << 39) | (5ull << 30) | (7ull << 21) | (9ull << 12);
    EXPECT_EQ(pteIndex(va, PtLevel::Pml4e), 3u);
    EXPECT_EQ(pteIndex(va, PtLevel::Pdpte), 5u);
    EXPECT_EQ(pteIndex(va, PtLevel::Pde), 7u);
    EXPECT_EQ(pteIndex(va, PtLevel::Pte), 9u);
}

struct PagingFixture : public ::testing::Test
{
    PagingFixture()
    {
        mem = std::make_unique<PhysicalMemory>(64ull << 20);
        nextFrame = 16;
        tables = std::make_unique<PageTables>(
            *mem, [this](PtLevel) { return nextFrame++; });

        DramGeometry g;
        g.sizeBytes = 64ull << 20;
        DisturbanceConfig dc;
        dc.refreshWindowCycles = 1'000'000;
        dram = std::make_unique<Dram>(g, DramTiming{100, 150, 200}, dc,
                                      *mem);
        CacheHierarchyConfig cc;
        caches = std::make_unique<CacheHierarchy>(cc, *dram);
        pscs = std::make_unique<PagingStructureCaches>();
        walker = std::make_unique<PageTableWalker>(*mem, *caches, *pscs);
    }

    std::unique_ptr<PhysicalMemory> mem;
    PhysFrame nextFrame;
    std::unique_ptr<PageTables> tables;
    std::unique_ptr<Dram> dram;
    std::unique_ptr<CacheHierarchy> caches;
    std::unique_ptr<PagingStructureCaches> pscs;
    std::unique_ptr<PageTableWalker> walker;
};

TEST_F(PagingFixture, Map4kTranslates)
{
    tables->map4k(0x7000'0000'0000, 0x123);
    auto t = tables->translate(0x7000'0000'0123);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->frame, 0x123u);
    EXPECT_FALSE(t->huge);
}

TEST_F(PagingFixture, UnmappedIsNullopt)
{
    EXPECT_FALSE(tables->translate(0xdead000).has_value());
}

TEST_F(PagingFixture, Map2mTranslatesWithOffset)
{
    tables->map2m(0x4000'0000'0000, 0x200);  // frame 512-aligned
    auto t = tables->translate(0x4000'0000'0000 + 5 * kPageBytes + 7);
    ASSERT_TRUE(t.has_value());
    EXPECT_TRUE(t->huge);
    EXPECT_EQ(t->frame, 0x200u + 5);
}

TEST_F(PagingFixture, Map2mPastTheEndOfMemoryFaults)
{
    // A PDE whose 2 MiB page starts in memory but runs past its end
    // (say, a flipped PFN bit): the in-range frames resolve, the rest
    // fault like an out-of-range 4 KiB leaf instead of wrapping.
    const VirtAddr va = 0x4000'0000'0000;
    tables->map2m(va, 0x200);
    PhysFrame table = tables->root();
    for (PtLevel level : {PtLevel::Pml4e, PtLevel::Pdpte})
        table = pteFrame(mem->read64((table << kPageShift) +
                                     pteIndex(va, level) * kPteBytes));
    mem->write64((table << kPageShift) +
                     pteIndex(va, PtLevel::Pde) * kPteBytes,
                 makePte(mem->frames() - 8, true, true, true));

    auto last = tables->translate(va + 7 * kPageBytes);
    ASSERT_TRUE(last.has_value());
    EXPECT_TRUE(last->huge);
    EXPECT_EQ(last->frame, mem->frames() - 1);
    EXPECT_FALSE(tables->translate(va + 8 * kPageBytes).has_value());
    EXPECT_FALSE(tables->translate(va + 511 * kPageBytes).has_value());
}

TEST_F(PagingFixture, Unmap4kRemoves)
{
    tables->map4k(0x1000, 0x50);
    tables->unmap4k(0x1000);
    EXPECT_FALSE(tables->translate(0x1000).has_value());
}

TEST_F(PagingFixture, SprayRangeSharesOneFrame)
{
    tables->mapRange4kSameFrame(0x2000'0000'0000, 1024, 0x99);
    for (std::uint64_t i = 0; i < 1024; i += 97) {
        auto t = tables->translate(0x2000'0000'0000 + i * kPageBytes);
        ASSERT_TRUE(t.has_value());
        EXPECT_EQ(t->frame, 0x99u);
    }
}

TEST_F(PagingFixture, SprayUsesPatternPages)
{
    // A fully-populated, single-frame L1PT page must stay compressed.
    tables->mapRange4kSameFrame(0x2000'0000'0000, kPtesPerPage, 0x99);
    auto l1pt = tables->l1ptFrame(0x2000'0000'0000);
    ASSERT_TRUE(l1pt.has_value());
    // Reading any entry gives the same PTE.
    PhysAddr base = *l1pt << kPageShift;
    EXPECT_EQ(mem->read64(base), mem->read64(base + 8 * 100));
    EXPECT_EQ(pteFrame(mem->read64(base)), 0x99u);
}

TEST_F(PagingFixture, L1pteAddressPointsAtRealEntry)
{
    VirtAddr va = 0x7000'0000'0000 + 37 * kPageBytes;
    tables->map4k(va, 0x777);
    auto pteAddr = tables->l1pteAddress(va);
    ASSERT_TRUE(pteAddr.has_value());
    EXPECT_EQ(pteFrame(mem->read64(*pteAddr)), 0x777u);
}

TEST_F(PagingFixture, CorruptedPteRedirectsTranslation)
{
    VirtAddr va = 0x7000'0000'0000;
    tables->map4k(va, 0x100);
    auto pteAddr = tables->l1pteAddress(va);
    // Simulate a rowhammer flip in a PFN bit.
    mem->flipBit(*pteAddr + 1, 0);  // PTE bit 8... byte1 bit0 = bit 8
    auto t = tables->translate(va);
    // Bit 8 is below the PFN, so translation is unchanged; flip a PFN
    // bit instead.
    mem->flipBit(*pteAddr + 2, 0);  // bit 16 = PFN bit 4
    t = tables->translate(va);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->frame, 0x100u ^ 0x10u);
}

TEST_F(PagingFixture, OutOfRangePfnFaults)
{
    VirtAddr va = 0x7000'0000'0000;
    tables->map4k(va, 0x100);
    auto pteAddr = tables->l1pteAddress(va);
    // Set a PFN bit far above installed memory.
    mem->flipBit(*pteAddr + 5, 0);  // PTE bit 40 -> frame bit 28
    EXPECT_FALSE(tables->translate(va).has_value());
}

TEST_F(PagingFixture, TableFramesTracked)
{
    std::size_t before = tables->tableFrames().size();
    tables->map4k(0x1000, 0x10);
    // root already existed; map added PDPT + PD + PT = 3 frames.
    EXPECT_EQ(tables->tableFrames().size(), before + 3);
}

TEST(PagingStructureCache, LruEviction)
{
    PagingStructureCache psc(2);
    psc.insert(1, 10);
    psc.insert(2, 20);
    psc.lookup(1);      // 2 becomes LRU
    psc.insert(3, 30);  // evicts 2
    EXPECT_TRUE(psc.contains(1));
    EXPECT_FALSE(psc.contains(2));
    EXPECT_TRUE(psc.contains(3));
}

TEST(PagingStructureCache, InsertUpdatesExisting)
{
    PagingStructureCache psc(4);
    psc.insert(1, 10);
    psc.insert(1, 11);
    EXPECT_EQ(psc.validEntries(), 1u);
    EXPECT_EQ(*psc.lookup(1), 11u);
}

/** Digest of a PSC of the given size after a scripted sequence: fill
 * past capacity, hits and misses, a refresh of a present tag, LRU
 * evictions, a flush and refills over the stale slots. */
std::uint64_t
scriptedPscDigest(unsigned entries)
{
    PagingStructureCache psc(entries);
    auto tag = [](unsigned i) { return 0x7f00ull + 3 * i; };
    for (unsigned i = 0; i < entries + 2; ++i)
        psc.insert(tag(i), 0x100 + i);
    for (unsigned i = 0; i < entries + 2; i += 3)
        psc.lookup(tag(i));
    psc.insert(tag(entries + 1), 0x999);
    for (unsigned i = 0; i < entries / 2 + 1; ++i)
        psc.insert(tag(100 + i), 0x200 + i);
    psc.flushAll();
    psc.insert(tag(7), 0x300);
    psc.insert(tag(100), 0x301);
    psc.lookup(tag(7));
    psc.lookup(tag(1));
    return psc.stateHash();
}

TEST(PagingStructureCache, StateHashPinnedAtEverySize)
{
    // 16 and 32 are the only sizes a preset uses (PDPTE/PML4E and PDE
    // caches); 2 makes every step of the script evict.
    EXPECT_EQ(scriptedPscDigest(2), 0x05f7a33e6f21eb5full);
    EXPECT_EQ(scriptedPscDigest(16), 0x76009a195e77034dull);
    EXPECT_EQ(scriptedPscDigest(32), 0x5f9554d90338e023ull);
}

TEST(PagingStructureCaches, TagsPerLevel)
{
    VirtAddr va = 0x7fff'ffff'f000;
    EXPECT_EQ(PagingStructureCaches::tagFor(va, PtLevel::Pml4e), va >> 39);
    EXPECT_EQ(PagingStructureCaches::tagFor(va, PtLevel::Pdpte), va >> 30);
    EXPECT_EQ(PagingStructureCaches::tagFor(va, PtLevel::Pde), va >> 21);
}

TEST(PagingStructureCachesDeathTest, LevelOneHasNoCache)
{
    PagingStructureCaches pscs;
    EXPECT_DEATH(PagingStructureCaches::tagFor(0x7000'0000'0000, PtLevel::Pte),
                 "no paging-structure cache for level 1");
    EXPECT_DEATH(pscs.level(PtLevel::Pte), "no paging-structure cache");
}

TEST_F(PagingFixture, CachesStateHashPinnedAfterWalks)
{
    // 40 L1PTs 2 MiB apart, across two PDPTs and two PML4 slots: the
    // 32-entry PDE cache evicts, then a second pass re-walks them.
    std::vector<VirtAddr> vas;
    for (unsigned i = 0; i < 40; ++i)
        vas.push_back((i < 20 ? 0x7000'0000'0000ull : 0x7080'4000'0000ull) +
                      i * kSuperPageBytes + (i % 5) * kPageBytes);
    for (VirtAddr va : vas)
        tables->map4k(va, 0x100 + (va >> kPageShift) % 512);
    tables->map2m(0x4000'0000'0000, 0x200);
    Cycles now = 0;
    for (int pass = 0; pass < 2; ++pass)
        for (VirtAddr va : vas)
            now += walker->walk(tables->root(), va, now).latency;
    walker->walk(tables->root(), 0x4000'0000'0000, now);
    EXPECT_EQ(pscs->stateHash(), 0x13f5e125b47c2ce7ull);
}

TEST_F(PagingFixture, ColdWalkFetchesFourLevels)
{
    VirtAddr va = 0x7000'0000'0000;
    tables->map4k(va, 0x100);
    WalkResult r = walker->walk(tables->root(), va, 0);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.frame, 0x100u);
    EXPECT_EQ(r.fetches, 4u);
    EXPECT_EQ(r.startLevel, 4u);
}

TEST_F(PagingFixture, WarmWalkUsesPdeCache)
{
    // The PThammer path: after one walk, the PDE cache holds the
    // partial translation, so the next walk fetches only the L1PTE.
    VirtAddr va = 0x7000'0000'0000;
    tables->map4k(va, 0x100);
    walker->walk(tables->root(), va, 0);
    WalkResult r = walker->walk(tables->root(), va, 100);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.fetches, 1u);
    EXPECT_EQ(r.startLevel, 1u);
}

TEST_F(PagingFixture, PdeCacheCoversNeighbouring4kPages)
{
    VirtAddr va = 0x7000'0000'0000;
    tables->mapRange4kSameFrame(va, kPtesPerPage, 0x42);
    walker->walk(tables->root(), va, 0);
    // A different page in the same 2 MiB region shares the PDE entry.
    WalkResult r = walker->walk(tables->root(), va + 17 * kPageBytes, 10);
    EXPECT_EQ(r.fetches, 1u);
}

TEST_F(PagingFixture, LeafFromDramTracksCacheState)
{
    VirtAddr va = 0x7000'0000'0000;
    tables->map4k(va, 0x100);
    WalkResult cold = walker->walk(tables->root(), va, 0);
    EXPECT_TRUE(cold.leafFromDram);
    WalkResult warm = walker->walk(tables->root(), va, 10);
    EXPECT_FALSE(warm.leafFromDram);  // PTE line now cached

    // Evict the PTE line from the hierarchy: the fetch returns to DRAM.
    auto pteAddr = tables->l1pteAddress(va);
    caches->clflush(*pteAddr);
    WalkResult evicted = walker->walk(tables->root(), va, 20);
    EXPECT_TRUE(evicted.leafFromDram);
    EXPECT_EQ(evicted.fetches, 1u);  // still the short path
}

TEST_F(PagingFixture, NonPresentWalkFails)
{
    WalkResult r = walker->walk(tables->root(), 0xdead000, 0);
    EXPECT_FALSE(r.ok);
    EXPECT_GE(r.fetches, 1u);
}

TEST_F(PagingFixture, HugeWalkStopsAtPde)
{
    tables->map2m(0x4000'0000'0000, 0x200);
    WalkResult r = walker->walk(tables->root(), 0x4000'0000'0000, 0);
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.huge);
    EXPECT_EQ(r.fetches, 3u);  // PML4E, PDPTE, PDE
}

} // namespace
} // namespace pth
