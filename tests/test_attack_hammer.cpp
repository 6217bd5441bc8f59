/**
 * @file
 * Hammering-pipeline tests: pair finding with ground-truth checks,
 * the implicit hammer's DRAM-fetch rate and extrapolation, the flip
 * checker, the exploit stage (with rigged corruptions) and the
 * explicit clflush baseline.
 */

#include <gtest/gtest.h>

#include "attack/explicit_hammer.hh"
#include "attack/pthammer.hh"
#include "cpu/machine.hh"
#include "kernel/kernel_module.hh"
#include "paging/pte.hh"

namespace pth
{
namespace
{

struct HammerEnv : public ::testing::Test
{
    HammerEnv() : machine(MachineConfig::testSmall())
    {
        attack.superpages = true;
        attack.sprayBytes = 16ull << 20;
        attack.superpageSampleClasses = 2;
        attack.maxAttempts = 50;
        pthammer = std::make_unique<PThammerAttack>(machine, attack);
        pthammer->prepare();
    }

    Machine machine;
    AttackConfig attack;
    std::unique_ptr<PThammerAttack> pthammer;
};

TEST_F(HammerEnv, PairFinderProducesProvisionedPairs)
{
    auto pair = pthammer->pairs().next();
    ASSERT_TRUE(pair.has_value());
    EXPECT_EQ(pair->va2 - pair->va1, pthammer->pairs().pairStride());
    EXPECT_FALSE(pair->tlbSet1.empty());
    EXPECT_FALSE(pair->llcSet1.empty());
    EXPECT_EQ(pair->llcSet1.size(),
              machine.config().caches.llc.ways + kLlcSetSizeMargin);
    EXPECT_GT(pair->llcSelectCycles, 0u);
}

TEST_F(HammerEnv, AcceptedPairsAreMostlySameBank)
{
    // Section IV-D: >95 % of timing-accepted pairs share a bank.
    KernelModule module(machine);
    unsigned sameBank = 0;
    unsigned oneRowApart = 0;
    const unsigned pairs = 12;
    for (unsigned i = 0; i < pairs; ++i) {
        auto pair = pthammer->pairs().next();
        ASSERT_TRUE(pair.has_value());
        Process &proc = machine.cpu().process();
        if (module.l1ptesSameBank(proc, pair->va1, pair->va2))
            ++sameBank;
        if (module.l1pteRowDistance(proc, pair->va1, pair->va2) == 2)
            ++oneRowApart;
    }
    EXPECT_GE(sameBank, pairs - 1);
    EXPECT_GE(oneRowApart, pairs * 3 / 4);
}

TEST_F(HammerEnv, ImplicitAccessFetchesL1pteFromDram)
{
    auto pair = pthammer->pairs().next();
    ASSERT_TRUE(pair.has_value());
    HammerRunResult r = pthammer->hammer().run(*pair, 256);
    EXPECT_GT(r.dramFetchRate, 0.7);
    EXPECT_GT(r.meanRoundCycles, 100.0);
}

TEST_F(HammerEnv, HammerRunAdvancesSimulatedTime)
{
    auto pair = pthammer->pairs().next();
    ASSERT_TRUE(pair.has_value());
    Cycles before = machine.clock().now();
    HammerRunResult r = pthammer->hammer().run(*pair, 100000);
    EXPECT_EQ(machine.clock().now() - before, r.totalCycles);
    // Extrapolation must scale with iteration count.
    EXPECT_NEAR(static_cast<double>(r.totalCycles),
                r.meanRoundCycles * 100000,
                r.meanRoundCycles * 100000 * 0.2);
}

using HammerEnvDeathTest = HammerEnv;

/** With no warmup there is no measured iteration cost to extrapolate
 * from, so a run must stop instead of skipping its iterations. */
TEST_F(HammerEnvDeathTest, ZeroWarmupIsFatal)
{
    auto pair = pthammer->pairs().next();
    ASSERT_TRUE(pair.has_value());
    AttackConfig noWarmup = attack;
    noWarmup.hammerWarmupIterations = 0;
    ImplicitHammer hammer(machine, noWarmup);
    EXPECT_EXIT(hammer.run(*pair, 1'000'000), testing::ExitedWithCode(1),
                "hammerWarmupIterations is 0");
}

TEST_F(HammerEnv, MeasureRoundsReturnsPlausibleTimings)
{
    auto pair = pthammer->pairs().next();
    ASSERT_TRUE(pair.has_value());
    auto timings = pthammer->hammer().measureRounds(*pair, 50);
    ASSERT_EQ(timings.size(), 50u);
    for (Cycles t : timings) {
        EXPECT_GT(t, 200u);
        EXPECT_LT(t, 4000u);
    }
}

TEST_F(HammerEnv, RepeatedHammeringEventuallyFlips)
{
    // testSmall has dense weak rows, so a handful of pairs suffices.
    std::uint64_t flips = 0;
    for (int i = 0; i < 40 && !flips; ++i) {
        auto pair = pthammer->pairs().next();
        if (!pair)
            break;
        HammerRunResult r =
            pthammer->hammer().run(*pair, attack.hammerIterations);
        flips += r.flips;
    }
    EXPECT_GT(flips, 0u);
}

TEST_F(HammerEnv, CheckerChargesFullScan)
{
    Cycles before = machine.clock().now();
    pthammer->checker().check();
    Cycles elapsed = machine.clock().now() - before;
    EXPECT_GE(elapsed, pthammer->sprayer().sprayedPages() *
                           kCheckCyclesPerPage);
}

TEST_F(HammerEnv, CheckerSeesInjectedPfnFlip)
{
    // Rig a flip through the DRAM device on a sprayed L1PTE line so it
    // lands in the flip log, then verify the checker reports the
    // affected virtual page.
    SprayManager &spray = pthammer->sprayer();
    VirtAddr victim = spray.regionBase(10) + 3 * kPageBytes;
    auto pteAddr =
        machine.cpu().process().pageTables()->l1pteAddress(victim);
    ASSERT_TRUE(pteAddr.has_value());
    machine.memory().flipBit(*pteAddr + 2, 3);  // PFN bit

    // The checker consumes the DRAM flip log, so inject a matching
    // event by flipping via the disturbance path is not possible here;
    // instead verify detection logic directly through readUser64.
    std::uint64_t value = 0;
    bool mapped = machine.cpu().readUser64(victim, value);
    EXPECT_TRUE(!mapped || value != spray.expectedMarker(10));
}

TEST_F(HammerEnv, ExploitTakesOverOwnPageTable)
{
    // Rig the corruption the hammer would produce: point one sprayed
    // PTE at another sprayed L1PT page.
    SprayManager &spray = pthammer->sprayer();
    Process &proc = machine.cpu().process();
    VirtAddr flippedVa = spray.regionBase(20) + 7 * kPageBytes;
    auto targetPt = proc.pageTables()->l1ptFrame(spray.regionBase(40));
    ASSERT_TRUE(targetPt.has_value());
    auto pteAddr = proc.pageTables()->l1pteAddress(flippedVa);
    machine.memory().write64(*pteAddr, makePte(*targetPt));

    Exploit exploit(machine, attack, spray);
    FlipFinding finding{flippedVa, 20};
    ExploitOutcome outcome = exploit.attempt(finding);
    EXPECT_TRUE(outcome.escalated);
    EXPECT_EQ(outcome.path, ExploitPath::OwnPtTakeover);
    EXPECT_TRUE(machine.kernel().processIsRoot(proc));
}

TEST_F(HammerEnv, ExploitOverwritesExposedCred)
{
    SprayManager &spray = pthammer->sprayer();
    Process &proc = machine.cpu().process();
    Process &victimProc = machine.kernel().createProcess(1000, true);
    PhysFrame credFrame =
        machine.kernel().credAddress(victimProc) >> kPageShift;

    VirtAddr flippedVa = spray.regionBase(21) + 9 * kPageBytes;
    auto pteAddr = proc.pageTables()->l1pteAddress(flippedVa);
    machine.memory().write64(*pteAddr, makePte(credFrame));

    Exploit exploit(machine, attack, spray);
    ExploitOutcome outcome = exploit.attempt({flippedVa, 21});
    EXPECT_TRUE(outcome.escalated);
    EXPECT_EQ(outcome.path, ExploitPath::CredOverwrite);
    EXPECT_TRUE(machine.kernel().processIsRoot(victimProc));
}

TEST_F(HammerEnv, ExploitRejectsUselessFlip)
{
    SprayManager &spray = pthammer->sprayer();
    Process &proc = machine.cpu().process();
    VirtAddr flippedVa = spray.regionBase(22) + 11 * kPageBytes;
    // Point the PTE at plain zero memory.
    auto pteAddr = proc.pageTables()->l1pteAddress(flippedVa);
    PhysFrame boring = machine.kernel().allocUserFrame(proc);
    machine.memory().write64(*pteAddr, makePte(boring));

    Exploit exploit(machine, attack, spray);
    ExploitOutcome outcome = exploit.attempt({flippedVa, 22});
    EXPECT_FALSE(outcome.escalated);
}

TEST(ExplicitHammerTest, PaddingIncreasesIterationCost)
{
    Machine machine(MachineConfig::testSmall());
    Process &proc = machine.kernel().createProcess(1000);
    machine.cpu().setProcess(proc);
    AttackConfig attack;
    ExplicitHammer hammer(machine, attack);
    hammer.setup(8ull << 20);
    double base = hammer.measureIterationCycles(0);
    double padded = hammer.measureIterationCycles(500);
    EXPECT_NEAR(padded - base, 500.0, 60.0);
}

TEST(ExplicitHammerTest, FastHammeringFlips)
{
    Machine machine(MachineConfig::testSmall());
    Process &proc = machine.kernel().createProcess(1000);
    machine.cpu().setProcess(proc);
    AttackConfig attack;
    ExplicitHammer hammer(machine, attack);
    hammer.setup(8ull << 20);
    ExplicitHammerResult r = hammer.run(0, /*budgetSeconds=*/600);
    EXPECT_TRUE(r.flipped);
    EXPECT_GT(r.secondsToFirstFlip, 0.0);
}

TEST(ExplicitHammerTest, SingleSidedIsWeakerThanDoubleSided)
{
    // Single-sided hammering halves the victim's disturbance, so at a
    // padding where double-sided still flips, single-sided may not —
    // and it must never flip where double-sided cannot.
    Machine machine(MachineConfig::testSmall());
    Process &proc = machine.kernel().createProcess(1000);
    machine.cpu().setProcess(proc);
    AttackConfig attack;
    ExplicitHammer hammer(machine, attack);
    hammer.setup(8ull << 20);
    // testSmall window = 128M cycles, thresholds 50k-80k: at ~3800
    // cycles/iteration each row sees ~34k activations per window —
    // enough for a double-sided victim (68k summed) but not for a
    // single-sided one (34k < 50k).
    ExplicitHammerResult doubleSided = hammer.run(3500, 400);
    ExplicitHammerResult singleSided = hammer.runSingleSided(3500, 400);
    EXPECT_TRUE(doubleSided.flipped);
    EXPECT_FALSE(singleSided.flipped);
}

TEST(ExplicitHammerTest, SingleSidedStillFlipsAtFullSpeed)
{
    Machine machine(MachineConfig::testSmall());
    Process &proc = machine.kernel().createProcess(1000);
    machine.cpu().setProcess(proc);
    AttackConfig attack;
    ExplicitHammer hammer(machine, attack);
    hammer.setup(8ull << 20);
    ExplicitHammerResult r = hammer.runSingleSided(0, 600);
    EXPECT_TRUE(r.flipped);
}

/** Both entry points replay the values captured before their loops
 * were folded into one, on a fresh machine per call. */
TEST(ExplicitHammerTest, EntryPointsArePinned)
{
    struct Pin
    {
        bool singleSided;
        unsigned nopPadding;
        bool flipped;
        double secondsToFirstFlip;
        std::uint64_t pairsHammered;
        double meanCyclesPerIteration;
        std::uint64_t fingerprint;
    };
    const Pin pins[] = {
        {false, 0, true, 12.806633589, 25, 403.9375,
         0xbb59aa80d923dd71ull},
        {false, 3500, true, 24.077786147000001, 47, 3900.75,
         0xc7a1c670b1d2d88aull},
        {true, 0, true, 3.5858543114999999, 7, 315.125,
         0xac49c2b15a160642ull},
        {true, 3500, false, 400.10048170649998, 781, 3783.625,
         0x3f48b10485486167ull},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(testing::Message()
                     << (pin.singleSided ? "single" : "double")
                     << "-sided, padding " << pin.nopPadding);
        Machine machine(MachineConfig::testSmall());
        Process &proc = machine.kernel().createProcess(1000);
        machine.cpu().setProcess(proc);
        AttackConfig attack;
        ExplicitHammer hammer(machine, attack);
        hammer.setup(8ull << 20);
        ExplicitHammerResult r =
            pin.singleSided ? hammer.runSingleSided(pin.nopPadding, 400)
                            : hammer.run(pin.nopPadding, 400);
        EXPECT_EQ(r.flipped, pin.flipped);
        EXPECT_DOUBLE_EQ(r.secondsToFirstFlip, pin.secondsToFirstFlip);
        EXPECT_EQ(r.pairsHammered, pin.pairsHammered);
        EXPECT_DOUBLE_EQ(r.meanCyclesPerIteration,
                         pin.meanCyclesPerIteration);
        EXPECT_EQ(machine.stateFingerprint(), pin.fingerprint);
    }
}

TEST(ExplicitHammerTest, ExtremePaddingPreventsFlips)
{
    Machine machine(MachineConfig::testSmall());
    Process &proc = machine.kernel().createProcess(1000);
    machine.cpu().setProcess(proc);
    AttackConfig attack;
    ExplicitHammer hammer(machine, attack);
    hammer.setup(8ull << 20);
    // testSmall thresholds (~50k-80k per window of 128M cycles) stop
    // flipping past ~128e6/50000 = 2560-cycle iterations... pad far
    // beyond that.
    ExplicitHammerResult r = hammer.run(8000, /*budgetSeconds=*/120);
    EXPECT_FALSE(r.flipped);
}

} // namespace
} // namespace pth
