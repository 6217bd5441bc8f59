/**
 * @file
 * Kernel substrate tests: processes, creds, mmap flavours, the
 * spraying fast path, and privilege checks.
 */

#include <gtest/gtest.h>

#include "cpu/machine.hh"

namespace pth
{
namespace
{

struct KernelFixture : public ::testing::Test
{
    KernelFixture() : machine(MachineConfig::testSmall()) {}
    Machine machine;
};

TEST_F(KernelFixture, ProcessesGetDistinctPids)
{
    Process &a = machine.kernel().createProcess(1000);
    Process &b = machine.kernel().createProcess(1001);
    EXPECT_NE(a.pid(), b.pid());
    EXPECT_EQ(machine.kernel().process(a.pid()).uid(), 1000u);
}

TEST_F(KernelFixture, LightweightProcessHasNoAddressSpace)
{
    Process &p = machine.kernel().createProcess(1000, true);
    EXPECT_EQ(p.pageTables(), nullptr);
}

TEST_F(KernelFixture, CredsWrittenToKernelMemory)
{
    Process &p = machine.kernel().createProcess(1234);
    PhysAddr cred = machine.kernel().credAddress(p);
    EXPECT_EQ(machine.memory().read64(cred), kCredMagic);
    std::uint64_t uidWord = machine.memory().read64(cred + 8);
    EXPECT_EQ(static_cast<std::uint32_t>(uidWord), 1234u);
    EXPECT_EQ(machine.memory().read64(cred + 16), p.pid());
}

TEST_F(KernelFixture, RootCheckReadsMemory)
{
    Process &p = machine.kernel().createProcess(1000);
    EXPECT_FALSE(machine.kernel().processIsRoot(p));
    // The rowhammer threat in one line: whoever can write this word is
    // root.
    machine.memory().write64(machine.kernel().credAddress(p) + 8, 0);
    EXPECT_TRUE(machine.kernel().processIsRoot(p));
}

TEST_F(KernelFixture, CredPagesTracked)
{
    Process &p = machine.kernel().createProcess(1000);
    PhysFrame credFrame = machine.kernel().credAddress(p) >> kPageShift;
    EXPECT_TRUE(machine.kernel().frameIsCredPage(credFrame));
}

TEST_F(KernelFixture, MmapAnonCreatesDistinctFrames)
{
    Process &p = machine.kernel().createProcess(1000);
    machine.kernel().mmapAnon(p, 0x1000'0000, 8 * kPageBytes);
    std::set<PhysFrame> frames;
    for (int i = 0; i < 8; ++i) {
        auto t = p.pageTables()->translate(0x1000'0000 + i * kPageBytes);
        ASSERT_TRUE(t.has_value());
        frames.insert(t->frame);
    }
    EXPECT_EQ(frames.size(), 8u);
}

TEST_F(KernelFixture, MmapSharedMapsOneFrameEverywhere)
{
    Process &p = machine.kernel().createProcess(1000);
    PhysFrame shared = machine.kernel().allocUserFrame(p);
    machine.kernel().mmapSharedSameFrame(p, 0x2000'0000, 64 * kPageBytes,
                                         shared);
    for (int i = 0; i < 64; i += 7) {
        auto t = p.pageTables()->translate(0x2000'0000 + i * kPageBytes);
        ASSERT_TRUE(t.has_value());
        EXPECT_EQ(t->frame, shared);
    }
}

TEST_F(KernelFixture, SprayCountsL1ptPages)
{
    Process &p = machine.kernel().createProcess(1000);
    PhysFrame shared = machine.kernel().allocUserFrame(p);
    std::uint64_t before = machine.kernel().l1ptCount();
    // 8 MiB of VA = 4 L1PT pages.
    machine.kernel().mmapSharedSameFrame(p, 0x4000'0000'0000,
                                         4 * kSuperPageBytes, shared);
    EXPECT_EQ(machine.kernel().l1ptCount(), before + 4);
}

TEST_F(KernelFixture, L1ptFramesAreIdentified)
{
    Process &p = machine.kernel().createProcess(1000);
    machine.kernel().mmapAnon(p, 0x1000'0000, kPageBytes);
    auto l1pt = p.pageTables()->l1ptFrame(0x1000'0000);
    ASSERT_TRUE(l1pt.has_value());
    EXPECT_TRUE(machine.kernel().frameIsL1pt(*l1pt));
    EXPECT_FALSE(machine.kernel().frameIsL1pt(1));
}

TEST_F(KernelFixture, MmapChargesTime)
{
    Process &p = machine.kernel().createProcess(1000);
    Cycles before = machine.clock().now();
    machine.kernel().mmapAnon(p, 0x1000'0000, 64 * kPageBytes);
    Cycles elapsed = machine.clock().now() - before;
    EXPECT_GE(elapsed, 64 * machine.kernel().config().pageFaultCycles);
}

TEST_F(KernelFixture, MmapHugeBuildsAlignedSuperpage)
{
    Process &p = machine.kernel().createProcess(1000);
    machine.kernel().mmapHuge(p, 0x6000'0000'0000, kSuperPageBytes);
    auto t = p.pageTables()->translate(0x6000'0000'0000);
    ASSERT_TRUE(t.has_value());
    EXPECT_TRUE(t->huge);
    EXPECT_EQ(t->frame & 0x1ff, 0u);
    // Virtual bits 0-20 equal physical bits 0-20 (what the superpage
    // pool build relies on).
    auto t2 = p.pageTables()->translate(0x6000'0000'0000 + 0x12345);
    EXPECT_EQ((t2->frame << kPageShift | 0x345) & (kSuperPageBytes - 1),
              0x12345u);
}

TEST_F(KernelFixture, ExhaustKernelZoneConsumesFrames)
{
    Machine m(MachineConfig::testSmall());
    std::uint64_t zone =
        m.kernel().defense().zoneFrames(AllocIntent::KernelData);
    m.kernel().exhaustKernelZone(0.5);
    // Subsequent kernel allocations continue from past the burn mark.
    PhysFrame f = m.kernel().defense().alloc(AllocIntent::KernelData, 0);
    EXPECT_GT(f, zone / 4);
}

TEST_F(KernelFixture, BootNoiseLeavesHoles)
{
    // Consecutive allocation right after boot is good but not perfect.
    Process &p = machine.kernel().createProcess(1000);
    machine.kernel().mmapAnon(p, 0x1000'0000, 512 * kPageBytes);
    unsigned jumps = 0;
    PhysFrame prev = p.pageTables()->translate(0x1000'0000)->frame;
    for (int i = 1; i < 512; ++i) {
        PhysFrame f =
            p.pageTables()->translate(0x1000'0000 + i * kPageBytes)->frame;
        if (f != prev + 1)
            ++jumps;
        prev = f;
    }
    EXPECT_GT(jumps, 0u);
    EXPECT_LT(jumps, 128u);
}

} // namespace
} // namespace pth
