/**
 * @file
 * Pool-build equivalence and sampling-path regression tests.
 *
 * The group-testing pool builder (serial and multi-threaded) must
 * produce exactly the pools the single-elimination baseline produces,
 * and both must coincide with the hardware's ground-truth set
 * mapping: per-set line membership is compared at zero measurement
 * noise on a true-LRU LLC, across all four supported slice counts
 * (exercising every SliceHash configuration). Separate regressions
 * pin the three sampled-build bugfixes: sampleClasses=0 meaning "all"
 * in both build paths, per-class bucket sizes in the quadratic
 * extrapolation, and overflow-free cost extrapolation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "attack/eviction_pool.hh"
#include "attack/pool_build.hh"
#include "cpu/machine.hh"

namespace pth
{
namespace
{

/** testSmall with the LLC re-sliced at constant 768 KiB capacity and
 * true-LRU replacement, so zero-noise conflict tests classify exactly
 * by (set, slice) congruence. The L2 index is shrunk to the line-
 * offset bits: on the paper machines (and stock testSmall) one
 * candidate class always thrashes one L2 set, and the re-sliced
 * 128-set LLC would otherwise leave bit 13 free, letting a survivor
 * set nest L2-resident where the LLC never sees it. */
MachineConfig
sliceConfig(unsigned slices)
{
    MachineConfig config = MachineConfig::testSmall();
    config.caches.llc.slices = slices;
    config.caches.llc.sets = 1024 / slices;
    config.caches.llc.replacement = ReplacementKind::Lru;
    config.caches.l2.sets = 64;
    return config;
}

AttackConfig
noiselessAttack(PoolBuildAlgorithm algorithm, unsigned threads,
                bool superpages)
{
    AttackConfig attack;
    attack.superpages = superpages;
    attack.timingNoiseProbability = 0;
    attack.poolBuild.algorithm = algorithm;
    attack.poolBuild.threads = threads;
    return attack;
}

/** A pool plus everything that keeps it alive. */
struct BuiltPool
{
    std::unique_ptr<Machine> machine;
    std::unique_ptr<AttackConfig> attack;
    std::unique_ptr<LlcEvictionPool> pool;
    PoolBuildReport report;
};

BuiltPool
buildPool(const MachineConfig &config, const AttackConfig &attackConfig,
          unsigned sampleClasses, unsigned groupsPerClass = 0)
{
    BuiltPool built;
    built.machine = std::make_unique<Machine>(config);
    built.attack = std::make_unique<AttackConfig>(attackConfig);
    Process &proc = built.machine->kernel().createProcess(1000);
    built.machine->cpu().setProcess(proc);
    built.pool =
        std::make_unique<LlcEvictionPool>(*built.machine, *built.attack);
    built.pool->allocateBuffer();
    built.report =
        built.attack->superpages
            ? built.pool->buildSuperpage(sampleClasses)
            : built.pool->buildRegularSampled(sampleClasses,
                                              groupsPerClass);
    return built;
}

PhysAddr
physOf(Machine &machine, VirtAddr line)
{
    auto tr = machine.cpu().process().pageTables()->translate(line);
    EXPECT_TRUE(tr.has_value());
    return (tr->frame << kPageShift) | (line & (kPageBytes - 1));
}

/** Ground-truth (set, slice) -> sorted member lines of a pool. */
std::map<std::uint64_t, std::vector<VirtAddr>>
membershipByGlobalSet(BuiltPool &built)
{
    std::map<std::uint64_t, std::vector<VirtAddr>> groups;
    for (const EvictionSet &set : built.pool->sets()) {
        PhysAddr pa = physOf(*built.machine, set.lines.front());
        std::uint64_t globalSet =
            built.machine->caches().llc().globalSet(pa);
        // Exactly one pool set per global set.
        EXPECT_EQ(groups.count(globalSet), 0u)
            << "two pool sets share global set " << globalSet;
        std::vector<VirtAddr> lines = set.lines;
        std::sort(lines.begin(), lines.end());
        groups[globalSet] = std::move(lines);
    }
    return groups;
}

/** Every line of every set maps to its set's ground-truth group. */
void
expectOracleExact(BuiltPool &built)
{
    std::uint64_t totalLines = 0;
    for (const EvictionSet &set : built.pool->sets()) {
        PhysAddr pa0 = physOf(*built.machine, set.lines.front());
        std::uint64_t expected =
            built.machine->caches().llc().globalSet(pa0);
        for (VirtAddr line : set.lines) {
            PhysAddr pa = physOf(*built.machine, line);
            ASSERT_EQ(built.machine->caches().llc().globalSet(pa),
                      expected)
                << "set contaminated";
        }
        totalLines += set.lines.size();
    }
    // Complete partition: every buffer line (2x LLC capacity,
    // superpage-rounded when mapped huge) is a member of exactly one
    // set.
    const MachineConfig &config = built.machine->config();
    std::uint64_t bytes = 2 * config.caches.llc.capacity();
    if (built.attack->superpages)
        bytes = (bytes + kSuperPageBytes - 1) & ~(kSuperPageBytes - 1);
    EXPECT_EQ(totalLines, bytes / kLineBytes);
}

void
expectBytesIdentical(const BuiltPool &a, const BuiltPool &b)
{
    ASSERT_EQ(a.pool->sets().size(), b.pool->sets().size());
    for (std::size_t i = 0; i < a.pool->sets().size(); ++i) {
        EXPECT_EQ(a.pool->sets()[i].classIndex,
                  b.pool->sets()[i].classIndex);
        ASSERT_EQ(a.pool->sets()[i].lines, b.pool->sets()[i].lines)
            << "set " << i << " differs";
    }
    EXPECT_EQ(poolFingerprint(a.pool->sets()),
              poolFingerprint(b.pool->sets()));
}

/** One LLC slice count per instance; tests/CMakeLists.txt runs each
 * instance as its own ctest entry, since they dominate the suite. */
class SuperpageSlices : public testing::TestWithParam<unsigned>
{
};

TEST_P(SuperpageSlices, PoolMatchesBaselineAndOracle)
{
    MachineConfig config = sliceConfig(GetParam());

    BuiltPool baseline = buildPool(
        config,
        noiselessAttack(PoolBuildAlgorithm::SingleElimination, 1, true),
        /*sampleClasses=*/0);
    BuiltPool serial = buildPool(
        config, noiselessAttack(PoolBuildAlgorithm::GroupTesting, 1, true),
        0);
    BuiltPool threaded = buildPool(
        config, noiselessAttack(PoolBuildAlgorithm::GroupTesting, 4, true),
        0);

    // The multi-threaded build is byte-identical to the serial one:
    // same sets, same order, same line order, same cost.
    expectBytesIdentical(serial, threaded);
    EXPECT_EQ(serial.report.sampledCycles, threaded.report.sampledCycles);
    EXPECT_EQ(serial.report.conflictTests, threaded.report.conflictTests);

    // Both algorithms partition the buffer exactly along the
    // ground-truth mapping...
    expectOracleExact(baseline);
    expectOracleExact(serial);

    // ...and therefore agree set-for-set on line membership.
    EXPECT_EQ(membershipByGlobalSet(baseline),
              membershipByGlobalSet(serial));
}

INSTANTIATE_TEST_SUITE_P(PoolEquivalence, SuperpageSlices,
                         testing::Values(1u, 2u, 4u, 8u),
                         testing::PrintToStringParamName());

TEST(PoolEquivalence, RegularPageMatchesBaselineAndOracle)
{
    MachineConfig config = sliceConfig(2);

    BuiltPool baseline = buildPool(
        config,
        noiselessAttack(PoolBuildAlgorithm::SingleElimination, 1,
                        false),
        /*sampleClasses=*/2, /*groupsPerClass=*/3);
    BuiltPool serial = buildPool(
        config, noiselessAttack(PoolBuildAlgorithm::GroupTesting, 1,
                                false),
        2, 3);
    BuiltPool threaded = buildPool(
        config, noiselessAttack(PoolBuildAlgorithm::GroupTesting, 4,
                                false),
        2, 3);

    expectBytesIdentical(serial, threaded);
    expectOracleExact(baseline);
    expectOracleExact(serial);
    EXPECT_EQ(membershipByGlobalSet(baseline),
              membershipByGlobalSet(serial));

    // The reduction win the bench tracks at paper scale holds at
    // test scale too.
    EXPECT_GE(baseline.report.conflictTests,
              3 * serial.report.conflictTests);
    EXPECT_GT(serial.report.conflictTests, 0u);
}

TEST(PoolEquivalence, ThreadedBuildDeterministicUnderNoise)
{
    // Determinism must not depend on noise being disabled: the noise
    // streams are per-class, so scheduling cannot reorder draws.
    MachineConfig config = MachineConfig::testSmall();
    AttackConfig attack;
    attack.superpages = true;
    attack.poolBuild.algorithm = PoolBuildAlgorithm::GroupTesting;

    AttackConfig serialCfg = attack;
    serialCfg.poolBuild.threads = 1;
    AttackConfig threadedCfg = attack;
    threadedCfg.poolBuild.threads = 4;

    BuiltPool serial = buildPool(config, serialCfg, 6);
    BuiltPool threaded = buildPool(config, threadedCfg, 6);
    expectBytesIdentical(serial, threaded);
    EXPECT_EQ(serial.report.sampledCycles,
              threaded.report.sampledCycles);
}

TEST(PoolSamplingRegression, ZeroSampleClassesMeansAllInBothPaths)
{
    MachineConfig config = MachineConfig::testSmall();

    AttackConfig superCfg;
    superCfg.superpages = true;
    BuiltPool super = buildPool(config, superCfg, /*sampleClasses=*/0);
    EXPECT_EQ(super.report.classesSampled, super.report.classesTotal);
    EXPECT_GT(super.report.classesSampled, 0u);
    // No sampling happened, so there is nothing to extrapolate.
    EXPECT_EQ(super.report.extrapolatedCycles,
              super.report.sampledCycles);

    // The regular path used to sample ZERO classes here (and then
    // extrapolate from nothing); 0 must mean "all 64", like above.
    AttackConfig regularCfg;
    regularCfg.superpages = false;
    BuiltPool regular =
        buildPool(config, regularCfg, /*sampleClasses=*/0,
                  /*groupsPerClass=*/1);
    EXPECT_EQ(regular.report.classesSampled,
              regular.report.classesTotal);
    EXPECT_EQ(regular.report.classesTotal, 64u);
    EXPECT_GT(regular.report.sampledCycles, 0u);
}

TEST(PoolSamplingRegression, UniformQuadraticExtrapolationUnchanged)
{
    // Uniform buckets reproduce the original closed form: per-class
    // weights scaled by classes-total / classes-sampled.
    const Cycles sampled = 1'000'000;
    const std::vector<std::size_t> classes(4, 100);
    const std::vector<unsigned> done{2};
    const unsigned ways = 5;

    double full = 0;
    double measured = 0;
    for (unsigned g = 0; g < 10; ++g) {
        double w = (100.0 - 10.0 * g) * (100.0 - 10.0 * g);
        full += w;
        if (g < 2)
            measured += w;
    }
    const Cycles expected = static_cast<Cycles>(
        static_cast<double>(sampled) * (4 * full) / measured + 0.5);
    EXPECT_EQ(extrapolateQuadratic(sampled, classes, done, ways),
              expected);
}

TEST(PoolSamplingRegression, QuadraticExtrapolationUsesPerClassSizes)
{
    // A non-64-aligned buffer leaves tail classes smaller; the old
    // formula billed every class at buckets[0]'s size and
    // over-extrapolated.
    const Cycles sampled = 1'000'000;
    const std::vector<std::size_t> classes{100, 50, 50, 50};
    const std::vector<unsigned> done{2};
    const unsigned ways = 5;

    double fullBig = 0;
    double measured = 0;
    for (unsigned g = 0; g < 10; ++g) {
        double w = (100.0 - 10.0 * g) * (100.0 - 10.0 * g);
        fullBig += w;
        if (g < 2)
            measured += w;
    }
    double fullSmall = 0;
    for (unsigned g = 0; g < 5; ++g)
        fullSmall += (50.0 - 10.0 * g) * (50.0 - 10.0 * g);

    const Cycles expected = static_cast<Cycles>(
        static_cast<double>(sampled) *
            (fullBig + 3 * fullSmall) / measured +
        0.5);
    EXPECT_EQ(extrapolateQuadratic(sampled, classes, done, ways),
              expected);

    // Strictly below the uniform-bucket misbill.
    const std::vector<std::size_t> uniform(4, 100);
    EXPECT_LT(extrapolateQuadratic(sampled, classes, done, ways),
              extrapolateQuadratic(sampled, uniform, done, ways));
}

TEST(PoolSamplingRegression, LinearModelMatchesGroupTestingDecay)
{
    // The group-testing path's per-group cost decays linearly with
    // the remaining candidates (every test traverses the whole
    // class), so its extrapolation weights (N - 2*ways*g) directly.
    const Cycles sampled = 1'000'000;
    const std::vector<std::size_t> classes(4, 100);
    const std::vector<unsigned> done{2};
    const unsigned ways = 5;

    double full = 0;
    double measured = 0;
    for (unsigned g = 0; g < 10; ++g) {
        full += 100.0 - 10.0 * g;
        if (g < 2)
            measured += 100.0 - 10.0 * g;
    }
    const Cycles expected = static_cast<Cycles>(
        static_cast<double>(sampled) * (4 * full) / measured + 0.5);
    EXPECT_EQ(extrapolateLinear(sampled, classes, done, ways),
              expected);

    // Late groups are cheaper than early ones but not quadratically
    // so: the linear estimate of the remaining work is larger.
    EXPECT_GT(extrapolateLinear(sampled, classes, done, ways),
              extrapolateQuadratic(sampled, classes, done, ways));
}

TEST(PoolSamplingRegression, UniformExtrapolationSurvivesPaperScale)
{
    // 5e17 sampled cycles x 2048 classes used to overflow the u64
    // product and wrap to garbage; the double path scales cleanly.
    const Cycles sampled = 500'000'000'000'000'000ull;
    const Cycles full = extrapolateUniformClasses(sampled, 2048, 96);
    EXPECT_GT(full, sampled);
    EXPECT_NEAR(static_cast<double>(full),
                static_cast<double>(sampled) * 2048 / 96,
                1e-9 * static_cast<double>(full));

    // Rounds to nearest, consistently with the quadratic path.
    EXPECT_EQ(extrapolateUniformClasses(7, 3, 2), 11u);
    EXPECT_EQ(extrapolateUniformClasses(10, 3, 2), 15u);
}

} // namespace
} // namespace pth
