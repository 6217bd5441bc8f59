/**
 * @file
 * Machine preset tests: the Table-I configurations and the CPU's
 * timed-access / batch / clflush semantics.
 */

#include <gtest/gtest.h>

#include "cpu/machine.hh"

namespace pth
{
namespace
{

TEST(MachineConfig, PaperMachinesMatchTableI)
{
    MachineConfig t420 = MachineConfig::lenovoT420();
    EXPECT_EQ(t420.caches.llc.ways, 12u);
    EXPECT_EQ(t420.caches.llc.capacity(), 3ull << 20);
    EXPECT_EQ(t420.dramGeometry.sizeBytes, 8ull << 30);
    EXPECT_EQ(t420.tlb.l1d.ways, 4u);
    EXPECT_EQ(t420.tlb.l2s.ways, 4u);

    MachineConfig x230 = MachineConfig::lenovoX230();
    EXPECT_EQ(x230.architecture, "IvyBridge");
    EXPECT_EQ(x230.caches.llc.capacity(), 3ull << 20);

    MachineConfig dell = MachineConfig::dellE6420();
    EXPECT_EQ(dell.caches.llc.ways, 16u);
    EXPECT_EQ(dell.caches.llc.capacity(), 4ull << 20);
    EXPECT_EQ(MachineConfig::paperMachines().size(), 3u);
}

TEST(MachineConfig, RowIndexStrideIs256KiB)
{
    // Table II / Section IV-D: RowsSize on the test machines.
    MachineConfig m = MachineConfig::lenovoT420();
    EXPECT_EQ(m.dramGeometry.rowIndexStride(), 256ull * 1024);
}

TEST(MachineConfig, SecondsCyclesRoundTrip)
{
    MachineConfig m = MachineConfig::lenovoT420();
    EXPECT_NEAR(m.seconds(m.cycles(1.5)), 1.5, 1e-9);
    EXPECT_EQ(m.cycles(1.0), static_cast<Cycles>(2.6e9));
}

TEST(MachineConfig, RefreshWindowIs64Ms)
{
    for (const MachineConfig &m : MachineConfig::paperMachines())
        EXPECT_NEAR(m.seconds(m.disturbance.refreshWindowCycles), 0.064,
                    1e-9);
}

struct CpuFixture : public ::testing::Test
{
    CpuFixture() : machine(MachineConfig::testSmall())
    {
        proc = &machine.kernel().createProcess(1000);
        machine.cpu().setProcess(*proc);
        machine.kernel().mmapAnon(*proc, kVa, 64 * kPageBytes);
    }

    static constexpr VirtAddr kVa = 0x1000'0000;
    Machine machine;
    Process *proc;
};

TEST_F(CpuFixture, AccessAdvancesClock)
{
    Cycles before = machine.clock().now();
    AccessOutcome out = machine.cpu().access(kVa);
    EXPECT_TRUE(out.ok);
    EXPECT_EQ(machine.clock().now(), before + out.latency);
}

TEST_F(CpuFixture, RepeatAccessGetsFaster)
{
    AccessOutcome cold = machine.cpu().access(kVa);
    AccessOutcome warm = machine.cpu().access(kVa);
    EXPECT_LT(warm.latency, cold.latency);
    EXPECT_FALSE(warm.causedWalk);
}

TEST_F(CpuFixture, BatchOverlapsLatencies)
{
    std::vector<VirtAddr> addrs;
    for (int i = 0; i < 16; ++i)
        addrs.push_back(kVa + i * kPageBytes);
    // Cold serial cost for comparison.
    Machine fresh(MachineConfig::testSmall());
    Process &p2 = fresh.kernel().createProcess(1000);
    fresh.cpu().setProcess(p2);
    fresh.kernel().mmapAnon(p2, kVa, 64 * kPageBytes);
    Cycles serial = 0;
    for (VirtAddr va : addrs)
        serial += fresh.cpu().access(va).latency;

    Cycles batched = machine.cpu().accessBatch(addrs);
    EXPECT_LT(batched, serial);
    EXPECT_GT(batched, 0u);
}

TEST_F(CpuFixture, ClflushForcesNextAccessToDram)
{
    machine.cpu().access(kVa);
    machine.cpu().clflush(kVa);
    AccessOutcome out = machine.cpu().access(kVa);
    EXPECT_GE(out.latency,
              machine.config().dramTiming.rowHit);
}

TEST_F(CpuFixture, NopsCostConfiguredCycles)
{
    Cycles before = machine.clock().now();
    machine.cpu().nops(100);
    EXPECT_EQ(machine.clock().now(), before + 100 * kNopCycles);
}

TEST_F(CpuFixture, RdtscChargesAndReturnsTime)
{
    Cycles t1 = machine.cpu().rdtsc();
    Cycles t2 = machine.cpu().rdtsc();
    EXPECT_GT(t2, t1);
}

TEST_F(CpuFixture, UserReadsFollowPageTables)
{
    PhysFrame frame = proc->pageTables()->translate(kVa)->frame;
    machine.memory().write64(frame << kPageShift, 0xabcdef);
    std::uint64_t value = 0;
    EXPECT_TRUE(machine.cpu().readUser64(kVa, value));
    EXPECT_EQ(value, 0xabcdefull);
    EXPECT_FALSE(machine.cpu().readUser64(0xdeadULL << 32, value));
}

TEST_F(CpuFixture, UserWritesLandInPhysicalMemory)
{
    EXPECT_TRUE(machine.cpu().writeUser64(kVa + 8, 0x42));
    PhysFrame frame = proc->pageTables()->translate(kVa)->frame;
    EXPECT_EQ(machine.memory().read64((frame << kPageShift) + 8), 0x42u);
}

TEST_F(CpuFixture, ContextSwitchFlushesTlb)
{
    machine.cpu().access(kVa);
    Process &other = machine.kernel().createProcess(1001);
    machine.cpu().setProcess(other);
    machine.cpu().setProcess(*proc);
    AccessOutcome out = machine.cpu().access(kVa);
    EXPECT_TRUE(out.causedWalk);
}

using CpuDeathTest = CpuFixture;

TEST_F(CpuDeathTest, PhysicalAddressPastMemoryEndFaults)
{
    // A translation to a frame past the end of memory faults on every
    // data path instead of wrapping onto a real frame. The walker
    // refuses such leaf entries, so the translation goes straight into
    // the TLB.
    const VirtAddr va = kVa + 128 * kPageBytes;
    machine.mmu().tlb().fill(
        {va >> kPageShift, machine.memory().frames(), false});
    EXPECT_DEATH(machine.cpu().access(va), "beyond memory end");
    EXPECT_DEATH(machine.cpu().accessBatch({va}), "beyond memory end");
    EXPECT_DEATH(machine.cpu().clflush(va), "beyond memory end");
}

} // namespace
} // namespace pth
