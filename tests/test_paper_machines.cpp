/**
 * @file
 * Cross-machine invariants, swept over all three Table-I presets: the
 * PThammer fast path, eviction-set machinery, pair provisioning,
 * per-iteration cycle bands and the flip-ceiling physics must hold on
 * every evaluated machine, not just the T420.
 */

#include <gtest/gtest.h>

#include "attack/pthammer.hh"
#include "cpu/machine.hh"
#include "kernel/kernel_module.hh"

namespace pth
{
namespace
{

class PaperMachine : public ::testing::TestWithParam<int>
{
  protected:
    MachineConfig
    config() const
    {
        return MachineConfig::paperMachines()[static_cast<std::size_t>(
            GetParam())];
    }
};

TEST_P(PaperMachine, GeometryIsSelfConsistent)
{
    MachineConfig m = config();
    // LLC capacity decomposes exactly.
    EXPECT_EQ(m.caches.llc.capacity(),
              m.caches.llc.sets * m.caches.llc.ways *
                  m.caches.llc.slices * kLineBytes);
    // The refresh window is 64 ms at the machine's own clock.
    EXPECT_NEAR(m.seconds(m.disturbance.refreshWindowCycles), 0.064,
                1e-9);
    // The flip ceiling implied by the weakest cells sits in the
    // 1400-1800 cycles/iteration range the paper measures (Figure 5):
    // disturbance = 2 * window / cyclesPerIter >= thresholdMin.
    double ceiling = 2.0 *
                     static_cast<double>(
                         m.disturbance.refreshWindowCycles) /
                     static_cast<double>(m.disturbance.thresholdMin);
    EXPECT_GT(ceiling, 1400.0);
    EXPECT_LT(ceiling, 1800.0);
}

TEST_P(PaperMachine, WalkerTakesShortPathAfterWarmup)
{
    Machine machine(config());
    Process &proc = machine.kernel().createProcess(1000);
    machine.cpu().setProcess(proc);
    machine.kernel().mmapAnon(proc, 0x1000'0000, 4 * kPageBytes);
    machine.cpu().access(0x1000'0000);
    machine.mmu().invalidatePage(0x1000'0000);
    TranslateResult r = machine.mmu().translate(0x1000'0000,
                                                machine.clock().now());
    EXPECT_TRUE(r.causedWalk);
    EXPECT_EQ(r.walkStartLevel, 1u)
        << "PDE cache must short-circuit the walk";
}

TEST_P(PaperMachine, ImplicitAccessHitsDramOnEveryMachine)
{
    Machine machine(config());
    AttackConfig attack;
    attack.superpages = true;
    attack.sprayBytes = 256ull << 20;
    attack.superpageSampleClasses = 4;
    PThammerAttack pthammer(machine, attack);
    pthammer.prepare();
    auto pair = pthammer.pairs().next();
    ASSERT_TRUE(pair.has_value());
    HammerRunResult r = pthammer.hammer().run(*pair, 128);
    EXPECT_GT(r.dramFetchRate, 0.7);
}

TEST_P(PaperMachine, IterationCostBelowFlipCeiling)
{
    Machine machine(config());
    AttackConfig attack;
    attack.superpages = true;
    attack.sprayBytes = 256ull << 20;
    attack.superpageSampleClasses = 4;
    PThammerAttack pthammer(machine, attack);
    pthammer.prepare();
    auto pair = pthammer.pairs().next();
    ASSERT_TRUE(pair.has_value());
    auto timings = pthammer.hammer().measureRounds(*pair, 20);
    double ceiling = 2.0 *
                     static_cast<double>(
                         config().disturbance.refreshWindowCycles) /
                     static_cast<double>(
                         config().disturbance.thresholdMin);
    for (Cycles t : timings) {
        EXPECT_LT(static_cast<double>(t), ceiling)
            << "hammering too slow to ever flip";
        EXPECT_GT(t, 400u);
    }
}

TEST_P(PaperMachine, DellIsSlowerThanLenovos)
{
    // Figure 6's cross-machine ordering: the 16-way LLC needs larger
    // eviction sets, so the Dell hammers more slowly.
    if (GetParam() != 2)
        GTEST_SKIP() << "comparison runs once, on the Dell instance";
    std::vector<double> means;
    for (const MachineConfig &cfg : MachineConfig::paperMachines()) {
        Machine machine(cfg);
        AttackConfig attack;
        attack.superpages = true;
        attack.sprayBytes = 256ull << 20;
        attack.superpageSampleClasses = 4;
        PThammerAttack pthammer(machine, attack);
        pthammer.prepare();
        auto pair = pthammer.pairs().next();
        ASSERT_TRUE(pair.has_value());
        auto timings = pthammer.hammer().measureRounds(*pair, 12);
        double sum = 0;
        for (Cycles t : timings)
            sum += static_cast<double>(t);
        means.push_back(sum / static_cast<double>(timings.size()));
    }
    EXPECT_GT(means[2], means[0]);
    EXPECT_GT(means[2], means[1]);
}

TEST_P(PaperMachine, TlbMinimalSizeExceedsAssociativity)
{
    Machine machine(config());
    AttackConfig attack;
    attack.superpages = true;
    attack.sprayBytes = 64ull << 20;
    Process &proc = machine.kernel().createProcess(1000);
    machine.cpu().setProcess(proc);
    SprayManager sprayer(machine, attack);
    sprayer.spray();
    TlbEvictionTool tlb(machine, attack);
    tlb.prepare();
    KernelModule module(machine);
    unsigned minimal =
        tlb.findMinimalSetSize(sprayer.randomTarget(3), module);
    EXPECT_GT(minimal, config().tlb.l2s.ways);
    EXPECT_LE(minimal, 16u);
}

TEST_P(PaperMachine, PairStrideIs256MiB)
{
    Machine machine(config());
    AttackConfig attack;
    attack.sprayBytes = 64ull << 20;
    Process &proc = machine.kernel().createProcess(1000);
    machine.cpu().setProcess(proc);
    SprayManager sprayer(machine, attack);
    TlbEvictionTool tlb(machine, attack);
    LlcEvictionPool pool(machine, attack);
    EvictionSetSelector selector(machine, attack, pool, tlb);
    PairFinder pairs(machine, attack, sprayer, tlb, selector);
    // 2 * RowsSize * 512 with RowsSize = 256 KiB.
    EXPECT_EQ(pairs.pairStride(), 256ull << 20);
}

TEST_P(PaperMachine, BankConflictThresholdSeparatesTimings)
{
    Machine machine(config());
    AttackConfig attack;
    LatencyProbe probe(machine.cpu(), machine.config(), attack);
    // The threshold must sit strictly between the fast (different
    // bank) and slow (same bank, row conflict) L1PTE fetch paths.
    Cycles overhead = machine.config().caches.l1d.latency +
                      machine.config().caches.l2.latency +
                      machine.config().caches.llc.latency;
    EXPECT_GT(probe.bankConflictThreshold(),
              overhead + machine.config().dramTiming.rowClosed);
    EXPECT_LT(probe.bankConflictThreshold(),
              overhead + machine.config().dramTiming.rowConflict +
                  kL2TlbHitLatency + 20);
    EXPECT_GT(probe.dramThreshold(), overhead);
    EXPECT_LT(probe.dramThreshold(),
              overhead + machine.config().dramTiming.rowHit + 100);
}

INSTANTIATE_TEST_SUITE_P(AllThree, PaperMachine,
                         ::testing::Values(0, 1, 2));

} // namespace
} // namespace pth
