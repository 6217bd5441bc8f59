/**
 * @file
 * MMU tests: the Figure-2 translation flow, TLB/PSC fill behaviour,
 * performance counters and invalidation.
 */

#include <gtest/gtest.h>

#include "cpu/machine.hh"
#include "kernel/kernel_module.hh"

namespace pth
{
namespace
{

struct MmuFixture : public ::testing::Test
{
    MmuFixture() : machine(MachineConfig::testSmall())
    {
        proc = &machine.kernel().createProcess(1000);
        machine.cpu().setProcess(*proc);
        machine.kernel().mmapAnon(*proc, kVa, 16 * kPageBytes);
    }

    static constexpr VirtAddr kVa = 0x5000'0000'0000;
    Machine machine;
    Process *proc;
};

TEST_F(MmuFixture, ColdTranslationWalks)
{
    auto before = machine.mmu().walker().walks();
    TranslateResult r = machine.mmu().translate(kVa, machine.clock().now());
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.causedWalk);
    EXPECT_EQ(machine.mmu().walker().walks(), before + 1);
}

TEST_F(MmuFixture, WarmTranslationHitsTlb)
{
    machine.mmu().translate(kVa, 0);
    TranslateResult r = machine.mmu().translate(kVa, 10);
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(r.causedWalk);
    EXPECT_EQ(r.latency, 0u);
}

TEST_F(MmuFixture, TranslationMatchesFunctionalWalk)
{
    TranslateResult r = machine.mmu().translate(kVa + 0x123, 0);
    auto functional = proc->pageTables()->translate(kVa + 0x123);
    ASSERT_TRUE(r.ok);
    ASSERT_TRUE(functional.has_value());
    EXPECT_EQ(r.pa, (functional->frame << kPageShift) | 0x123u);
}

TEST_F(MmuFixture, InvlpgForcesRewalk)
{
    machine.mmu().translate(kVa, 0);
    machine.mmu().invalidatePage(kVa);
    TranslateResult r = machine.mmu().translate(kVa, 10);
    EXPECT_TRUE(r.causedWalk);
    // Thanks to the PDE cache, the re-walk is the short path.
    EXPECT_EQ(r.walkStartLevel, 1u);
}

TEST_F(MmuFixture, Cr3WriteFlushesEverything)
{
    machine.mmu().translate(kVa, 0);
    machine.mmu().setRoot(proc->pageTables()->root());
    TranslateResult r = machine.mmu().translate(kVa, 10);
    EXPECT_TRUE(r.causedWalk);
    EXPECT_EQ(r.walkStartLevel, 4u);  // PSCs flushed too
}

TEST_F(MmuFixture, UnmappedTranslationFails)
{
    TranslateResult r = machine.mmu().translate(0xdead0000, 0);
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.causedWalk);
}

TEST_F(MmuFixture, HugePageTranslation)
{
    VirtAddr hugeVa = 0x6000'0000'0000;
    machine.kernel().mmapHuge(*proc, hugeVa, kSuperPageBytes);
    TranslateResult cold = machine.mmu().translate(hugeVa + 0x5123, 0);
    ASSERT_TRUE(cold.ok);
    EXPECT_TRUE(cold.huge);
    TranslateResult warm = machine.mmu().translate(hugeVa + 0x7000, 10);
    EXPECT_TRUE(warm.ok);
    EXPECT_FALSE(warm.causedWalk);  // hits the 2 MiB TLB entry
}

TEST_F(MmuFixture, TlbLookupCounterAdvances)
{
    auto before = machine.mmu().counters().tlbLookups;
    machine.mmu().translate(kVa, 0);
    machine.mmu().translate(kVa, 1);
    EXPECT_EQ(machine.mmu().counters().tlbLookups, before + 2);
}

TEST_F(MmuFixture, WalkPmcCountsEachColdTranslationOnce)
{
    // dtlb_load_misses.miss_causes_a_walk: one per walk, however many
    // entries the walk fetches.
    KernelModule module(machine);
    for (unsigned page = 0; page < 4; ++page) {
        const std::uint64_t before =
            module.readPmc(PmcEvent::DtlbLoadMissesWalk);
        TranslateResult r =
            machine.mmu().translate(kVa + page * kPageBytes, 10 * page);
        ASSERT_TRUE(r.causedWalk);
        EXPECT_EQ(module.readPmc(PmcEvent::DtlbLoadMissesWalk), before + 1)
            << "page " << page;
    }
    const std::uint64_t before = module.readPmc(PmcEvent::DtlbLoadMissesWalk);
    ASSERT_FALSE(machine.mmu().translate(kVa, 100).causedWalk);
    EXPECT_EQ(module.readPmc(PmcEvent::DtlbLoadMissesWalk), before);
}

TEST_F(MmuFixture, LlcMissPmcCountsEachLlcMissOnce)
{
    // longest_lat_cache.miss: one per access the LLC sends to DRAM.
    KernelModule module(machine);
    const std::uint64_t before =
        module.readPmc(PmcEvent::LongestLatCacheMiss);
    std::uint64_t fromDram = 0;
    for (unsigned i = 0; i < 24; ++i) {
        const PhysAddr pa = 0x40000 + (i % 8) * 64;
        if (i % 5 == 0)
            machine.caches().clflush(pa);
        fromDram += machine.caches().access(pa, i).fromDram();
    }
    ASSERT_GT(fromDram, 8u);
    EXPECT_EQ(module.readPmc(PmcEvent::LongestLatCacheMiss),
              before + fromDram);
}

TEST_F(MmuFixture, WalkerCountsPdeStarts)
{
    machine.mmu().translate(kVa, 0);
    machine.mmu().invalidatePage(kVa);
    auto before = machine.mmu().walker().pdeCacheStarts();
    machine.mmu().translate(kVa, 10);
    EXPECT_EQ(machine.mmu().walker().pdeCacheStarts(), before + 1);
}

} // namespace
} // namespace pth
