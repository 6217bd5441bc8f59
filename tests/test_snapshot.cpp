/**
 * @file
 * Machine snapshot/fork contract tests. The hard contract: a run on a
 * machine forked from a snapshot is byte-identical to the same run on
 * a cold-constructed machine — across defenses and DRAM flip models,
 * machine presets, clone-of-clone chains, and the campaign's warm/cold
 * execution modes (serial and threaded). Also audits that every
 * counter (cache hits/misses, LLC misses, perf counters, kernel
 * bookkeeping) restores to its captured value.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/random.hh"
#include "cpu/machine.hh"
#include "harness/campaign.hh"
#include "harness/result_store.hh"

namespace pth
{
namespace
{

constexpr VirtAddr kVa = 0x2000'0000;

/**
 * Deterministically exercise every machine component: process +
 * address space creation, TLB/cache/DRAM traffic, clflushes, user
 * writes. salt decorrelates drives so two different drives diverge.
 */
void
drive(Machine &m, std::uint64_t salt)
{
    Process &proc = m.kernel().createProcess(1000);
    m.cpu().setProcess(proc);
    m.kernel().mmapAnon(proc, kVa, 32 * kPageBytes);
    Rng rng(0xd21fe + salt);
    for (int i = 0; i < 300; ++i) {
        const std::uint64_t page = rng.below(32);
        VirtAddr va = kVa + page * kPageBytes + rng.below(8) * 64;
        m.cpu().access(va);
        if (i % 17 == 0)
            m.cpu().clflush(va);
        if (i % 29 == 0)
            m.cpu().writeUser64(va & ~0x7ull, rng.next());
    }
}

const FlipModelKind kAllModels[] = {
    FlipModelKind::Ddr3Seeded, FlipModelKind::Trr,
    FlipModelKind::Distance2, FlipModelKind::Ecc};

const DefenseKind kAllDefenses[] = {
    DefenseKind::None, DefenseKind::Catt, DefenseKind::RipRh,
    DefenseKind::Cta, DefenseKind::ZebRam};

TEST(MachineSnapshot, ForkMatchesColdConstructionEveryDramModel)
{
    for (DefenseKind defense : kAllDefenses) {
        for (FlipModelKind kind : kAllModels) {
            MachineConfig config = MachineConfig::testSmall();
            config.withDramModel(kind);
            config.defense = defense;
            const std::string what = defenseKindName(defense) + "/" +
                                     flipModelKindName(kind);

            Machine original(config);
            MachineSnapshot snap = original.snapshot();
            std::unique_ptr<Machine> forked = snap.instantiate();
            Machine cold(config);

            // Construction is deterministic, so a fork of a just-built
            // machine must land exactly where a cold build does.
            ASSERT_EQ(forked->stateFingerprint(), cold.stateFingerprint())
                << what;

            // And the fork replays identically from there on.
            drive(*forked, 1);
            drive(cold, 1);
            EXPECT_EQ(forked->stateFingerprint(), cold.stateFingerprint())
                << what;
        }
    }
}

/**
 * A workload that reaches every defense's own allocator state: two
 * processes in distinct RIP-RH partitions, an L1PT frame freed and
 * handed out again (CTA's and ZebRAM's recycled-frame lists), and,
 * under CATT, the kernel zone exhausted so kernel frames fall back to
 * the user zone.
 */
void
defenseWorkload(Machine &m, std::uint32_t salt)
{
    Kernel &kernel = m.kernel();
    Process &a = kernel.createProcess(1000 + salt);
    m.cpu().setProcess(a);
    kernel.mmapAnon(a, kVa, 16 * kPageBytes);

    Defense &defense = kernel.defense();
    PhysFrame pt = defense.alloc(AllocIntent::PageTableL1, a.pid());
    defense.free(pt, AllocIntent::PageTableL1, a.pid());
    if (defense.name() == "CATT")
        kernel.exhaustKernelZone(1.0);

    Process &b = kernel.createProcess(2000 + salt);
    kernel.mmapAnon(b, kVa, 16 * kPageBytes);
    Rng rng(0xdef + salt);
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t page = rng.below(16);
        m.cpu().access(kVa + page * kPageBytes + rng.below(64) * 64);
    }
}

TEST(MachineSnapshot, DefenseStatePinnedThroughFork)
{
    // Fingerprints after defenseWorkload(m, 0) on TestSmall, one per
    // DefenseKind in kAllDefenses order.
    const std::uint64_t kPinned[] = {
        0xac251323dfed8e28ull,  // None
        0xaddd102467852539ull,  // CATT
        0x063b379426ab9daaull,  // RIP-RH
        0x5e4a8d37b9b3d136ull,  // CTA
        0x3ae815d359be60b3ull,  // ZebRAM
    };
    std::size_t i = 0;
    for (DefenseKind defense : kAllDefenses) {
        MachineConfig config = MachineConfig::testSmall();
        config.defense = defense;
        Machine original(config);
        defenseWorkload(original, 0);
        EXPECT_EQ(original.stateFingerprint(), kPinned[i++])
            << defenseKindName(defense);

        // A fork of the worked machine carries every pool, cursor,
        // recycled frame and fallback flag: it replays in lockstep.
        std::unique_ptr<Machine> forked = original.clone();
        ASSERT_EQ(forked->stateFingerprint(), original.stateFingerprint())
            << defenseKindName(defense);
        defenseWorkload(original, 1);
        defenseWorkload(*forked, 1);
        EXPECT_EQ(forked->stateFingerprint(), original.stateFingerprint())
            << defenseKindName(defense);
    }
}

TEST(MachineSnapshot, ForkMatchesColdConstructionEveryPreset)
{
    const MachinePreset presets[] = {
        MachinePreset::TestSmall, MachinePreset::LenovoT420,
        MachinePreset::LenovoX230, MachinePreset::DellE6420};
    for (MachinePreset preset : presets) {
        MachineConfig config = makeMachineConfig(preset);
        Machine original(config);
        std::unique_ptr<Machine> forked = original.clone();
        Machine cold(config);
        ASSERT_EQ(forked->stateFingerprint(), cold.stateFingerprint())
            << machinePresetName(preset);
        drive(*forked, 2);
        drive(cold, 2);
        EXPECT_EQ(forked->stateFingerprint(), cold.stateFingerprint())
            << machinePresetName(preset);
    }
}

TEST(MachineSnapshot, CloneOfCloneReplaysIdentically)
{
    Machine original(MachineConfig::testSmall());
    drive(original, 3);

    std::unique_ptr<Machine> first = original.clone();
    std::unique_ptr<Machine> second = first->clone();
    ASSERT_EQ(original.stateFingerprint(), first->stateFingerprint());
    ASSERT_EQ(original.stateFingerprint(), second->stateFingerprint());

    // All three must evolve in lockstep under the same inputs.
    drive(original, 4);
    drive(*first, 4);
    drive(*second, 4);
    EXPECT_EQ(original.stateFingerprint(), first->stateFingerprint());
    EXPECT_EQ(original.stateFingerprint(), second->stateFingerprint());
}

TEST(MachineSnapshot, ForksDoNotAliasState)
{
    Machine original(MachineConfig::testSmall());
    drive(original, 5);
    MachineSnapshot snap = original.snapshot();

    std::unique_ptr<Machine> a = snap.instantiate();
    std::unique_ptr<Machine> b = snap.instantiate();
    drive(*a, 6);  // diverge a only
    EXPECT_NE(a->stateFingerprint(), b->stateFingerprint());
    // b and the frozen state are untouched by a's run.
    EXPECT_EQ(b->stateFingerprint(), snap.machine().stateFingerprint());
    EXPECT_EQ(b->stateFingerprint(), original.stateFingerprint());
}

TEST(MachineSnapshot, CountersRestoreToCapturedValues)
{
    Machine m(MachineConfig::testSmall());
    drive(m, 7);

    const std::uint64_t llcMisses = m.caches().llcMisses();
    const std::uint64_t l1Hits = m.caches().l1d().hits();
    const std::uint64_t l1Misses = m.caches().l1d().misses();
    const std::uint64_t walks = m.mmu().walker().walks();
    const std::uint64_t tlbLookups = m.mmu().counters().tlbLookups;
    const std::uint64_t l1pts = m.kernel().l1ptCount();
    const Cycles now = m.clock().now();
    const std::uint64_t fp = m.stateFingerprint();
    ASSERT_GT(llcMisses, 0u);
    ASSERT_GT(walks, 0u);

    MachineSnapshot snap = m.snapshot();
    drive(m, 8);  // push the original far past the capture point
    ASSERT_NE(m.stateFingerprint(), fp);

    std::unique_ptr<Machine> restored = snap.instantiate();
    EXPECT_EQ(restored->caches().llcMisses(), llcMisses);
    EXPECT_EQ(restored->caches().l1d().hits(), l1Hits);
    EXPECT_EQ(restored->caches().l1d().misses(), l1Misses);
    EXPECT_EQ(restored->mmu().walker().walks(), walks);
    EXPECT_EQ(restored->mmu().counters().tlbLookups, tlbLookups);
    EXPECT_EQ(restored->kernel().l1ptCount(), l1pts);
    EXPECT_EQ(restored->clock().now(), now);
    EXPECT_EQ(restored->stateFingerprint(), fp);
}

/** A fast PThammer campaign over one shared machine configuration. */
Campaign
attackSweep(unsigned seeds)
{
    RunSpec base;
    base.label = "warmfork";
    base.preset = MachinePreset::TestSmall;
    base.strategy = HammerStrategy::PThammer;
    base.attack.superpages = true;
    base.attack.sprayBytes = 24ull << 20;
    base.attack.superpageSampleClasses = 2;
    base.attack.maxAttempts = 10;
    base.attack.hammerBudgetSeconds = 36000;

    Campaign campaign;
    campaign.addAttackSeedSweep(base, /*seedBase=*/100, seeds);
    return campaign;
}

TEST(CampaignSnapshot, WarmForkReportByteIdenticalToColdSerial)
{
    Campaign campaign = attackSweep(3);

    CampaignOptions warm;   // reuseMachines defaults to true
    CampaignOptions cold;
    cold.reuseMachines = false;

    const std::string warmJson =
        Campaign::toJson(campaign.run(warm));
    const std::string coldJson =
        Campaign::toJson(campaign.run(cold));
    EXPECT_EQ(warmJson, coldJson);
}

TEST(CampaignSnapshot, WarmForkReportByteIdenticalThreaded)
{
    Campaign campaign = attackSweep(3);

    CampaignOptions serial;
    CampaignOptions threaded;
    threaded.threads = 3;

    const std::string serialJson =
        Campaign::toJson(campaign.run(serial));
    const std::string threadedJson =
        Campaign::toJson(campaign.run(threaded));
    EXPECT_EQ(serialJson, threadedJson);
}

TEST(CampaignSnapshot, AttackScopedSeedsShareOneMachineConfig)
{
    // Attack-scoped sweep: the sharing bit flips the journal keys.
    Campaign shared = attackSweep(3);
    CampaignOptions warm;
    CampaignOptions cold;
    cold.reuseMachines = false;
    const auto warmKeys = shared.specKeys(warm);
    const auto coldKeys = shared.specKeys(cold);
    ASSERT_EQ(warmKeys.size(), 3u);
    for (std::size_t i = 0; i < warmKeys.size(); ++i) {
        EXPECT_NE(warmKeys[i], coldKeys[i]);
        EXPECT_EQ(coldKeys[i], specKey(shared.specs()[i]));
        EXPECT_EQ(warmKeys[i], specKey(shared.specs()[i], true));
    }

    // All-streams sweep: every run derives a different machine, so
    // nothing shares and both modes key identically.
    RunSpec base;
    base.label = "allstreams";
    base.preset = MachinePreset::TestSmall;
    Campaign distinct;
    distinct.addSeedSweep(base, /*seedBase=*/100, 3);
    EXPECT_EQ(distinct.specKeys(warm), distinct.specKeys(cold));

    // Attack-scoped seeding changes the run, so it must change the
    // base key too (a journaled all-streams result can never satisfy
    // an attack-scoped resume).
    RunSpec scoped = base;
    scoped.seed = 100;
    RunSpec unscoped = scoped;
    scoped.seedScope = SeedScope::AttackOnly;
    EXPECT_NE(specKey(scoped), specKey(unscoped));
}

TEST(CampaignSnapshot, IdenticalSpecsShareEvenWithoutSweep)
{
    RunSpec base;
    base.label = "same";
    base.preset = MachinePreset::TestSmall;
    Campaign campaign;
    campaign.add(base);
    RunSpec second = base;
    second.label = "same-again";  // label is not part of the machine
    campaign.add(second);

    CampaignOptions warm;
    const auto keys = campaign.specKeys(warm);
    EXPECT_EQ(keys[0], specKey(campaign.specs()[0], true));
    EXPECT_EQ(keys[1], specKey(campaign.specs()[1], true));
}

} // namespace
} // namespace pth
