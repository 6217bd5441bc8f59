/**
 * @file
 * The complete pool of LLC eviction sets (Section III-D).
 *
 * The attacker allocates a buffer twice the LLC size and partitions it
 * into one eviction set per (set-index, slice) pair using timing-based
 * conflict tests:
 *
 *  - With superpages (Liu et al.), virtual bits 0-20 equal physical
 *    bits, so the set index (bits 6-16) is known and only the slice
 *    must be resolved — the pool builds in sub-minute time.
 *  - With regular 4 KiB pages (Genkin et al.), only bits 6-11 are
 *    known; candidates per class are 32x more numerous and the
 *    reduction is quadratic in their number, which is why the paper
 *    reports 18-38 *minutes*. We run the identical algorithm on a
 *    sample of classes and extrapolate its simulated cost; the
 *    resulting pool object is identical either way.
 */

#ifndef PTH_ATTACK_EVICTION_POOL_HH
#define PTH_ATTACK_EVICTION_POOL_HH

#include <cstdint>
#include <vector>

#include "attack/attack_config.hh"
#include "attack/timing.hh"
#include "common/types.hh"

namespace pth
{

class Machine;

/** Timed repeats majority-voted in one pool-build conflict test. */
inline constexpr unsigned kLlcBuildRepeats = 6;

/** Extra lines beyond the LLC associativity in a working eviction set
 * (paper: one larger). */
inline constexpr unsigned kLlcSetSizeMargin = 1;

/** One eviction set: lines congruent in (set index, slice). */
struct EvictionSet
{
    /** LLC set-index bits 6-16 shared by every line. */
    std::uint64_t classIndex = 0;

    /** Member line addresses (virtual). */
    std::vector<VirtAddr> lines;

    /** Replace out with the first size lines (the working eviction
     * set); reusing out's storage allocates nothing once it has grown. */
    void
    firstLines(unsigned size, std::vector<VirtAddr> &out) const
    {
        out.assign(lines.begin(),
                   lines.begin() + std::min<std::size_t>(size, lines.size()));
    }
};

/** Report from a (possibly sampled) pool build. */
struct PoolBuildReport
{
    Cycles sampledCycles = 0;        //!< simulated cycles actually spent
    Cycles extrapolatedCycles = 0;   //!< full-pool cost estimate
    unsigned classesSampled = 0;
    unsigned classesTotal = 0;

    /** Timed conflict-test experiments the sampled build ran (one
     * evicts() run, or one batched membership pass per ways-sized
     * candidate batch). */
    std::uint64_t conflictTests = 0;

    /** Simulated line touches those experiments issued. */
    std::uint64_t lineAccesses = 0;

    /** Algorithm and worker count that produced the pool. */
    PoolBuildAlgorithm algorithm = PoolBuildAlgorithm::SingleElimination;
    unsigned threads = 1;
};

/** The pool builder / container. */
class LlcEvictionPool
{
  public:
    LlcEvictionPool(Machine &machine, const AttackConfig &config);

    /**
     * Allocate the conflict buffer (2x LLC). Superpage mode uses
     * mmap(MAP_HUGETLB); regular mode uses 4 KiB pages.
     * @return Simulated cycles.
     */
    Cycles allocateBuffer();

    /**
     * Build the pool with superpage knowledge (Liu et al.).
     *
     * The extraction algorithm and worker count come from
     * AttackConfig::poolBuild; the group-testing path produces a
     * byte-identical pool serial or multi-threaded.
     *
     * @param sampleClasses Classes to run in full detail (0 = all);
     *        sampling extrapolates the cost and oracle-fills the rest.
     */
    PoolBuildReport buildSuperpage(unsigned sampleClasses = 0);

    /**
     * Run the regular-page algorithm (Genkin et al.) on sampleClasses
     * page-offset classes (0 = all 64), extracting groupsPerClass
     * groups per class, and extrapolate the full cost with the
     * algorithm's quadratic work model; the rest of the pool is
     * oracle-filled (functionally identical, verified by tests).
     * Algorithm/threads come from AttackConfig::poolBuild, as above.
     */
    PoolBuildReport buildRegularSampled(unsigned sampleClasses,
                                        unsigned groupsPerClass);

    /** All eviction sets. */
    const std::vector<EvictionSet> &sets() const { return pool; }

    /**
     * Candidate sets whose lines share the given page-offset line
     * index (bits 6-11) — the Algorithm 2 collection step.
     */
    std::vector<const EvictionSet *>
    candidatesForLineOffset(std::uint64_t lineOffset) const;

    /** The timing-based "does set evict x" conflict test. */
    bool evicts(VirtAddr x, const std::vector<VirtAddr> &set);

    /** Working eviction-set size (associativity + margin). */
    unsigned workingSetSize() const;

    /** Measured eviction rate of size-limited sets (Figure 4). */
    double profileEvictionRate(VirtAddr target, unsigned setSize,
                               unsigned trials);

  private:
    /**
     * The one body of both builds: bucket the buffer by its known
     * class bits, extract the sampled classes, extrapolate the cost
     * (uniform per class for superpages, the scan-work model for
     * regular pages) and oracle-fill the rest.
     * @param groupsPerClass Per-class group cap (0 = no limit).
     */
    PoolBuildReport build(bool superpage, unsigned sampleClasses,
                          unsigned groupsPerClass);

    /**
     * Extract groups from the first report.classesSampled buckets with
     * the configured algorithm (cfg.poolBuild), appending sets to the
     * pool in class-index order regardless of worker count, and record
     * their cycles and work counters in report.
     * @param hintFromBucket True: record the bucket index as each
     *        set's classIndex (superpage path); false: derive the
     *        set-index bits from each set's base line (regular path).
     * @return Groups extracted per sampled class.
     */
    std::vector<unsigned> extractClasses(
        const std::vector<std::vector<VirtAddr>> &buckets,
        PoolBuildReport &report, bool hintFromBucket,
        unsigned maxGroupsPerClass);

    /** All buffer line VAs whose class matches under the given mask. */
    std::vector<VirtAddr> classCandidates(std::uint64_t classValue,
                                          std::uint64_t classMask) const;

    /**
     * Greedy group extraction: split candidates into congruent groups
     * by minimal-set reduction + membership classification.
     * @param maxGroups Stop after this many groups (0 = no limit).
     * @return Groups extracted.
     */
    unsigned extractGroups(std::vector<VirtAddr> candidates,
                           std::uint64_t classIndexHint,
                           unsigned maxGroups);

    /** Complete a sampled pool from the ground-truth mapping. */
    void oracleFill();

    /** Functional physical address of a buffer line. */
    PhysAddr linePhys(VirtAddr line) const;

    Machine &m;
    const AttackConfig &cfg;
    LatencyProbe probe;
    std::uint64_t bufferBytes;
    std::vector<VirtAddr> bufferLines;
    std::vector<EvictionSet> pool;

    /** Machine-path (single-elimination) work counters. */
    std::uint64_t machineConflictTests = 0;
    std::uint64_t machineLineAccesses = 0;
};

} // namespace pth

#endif // PTH_ATTACK_EVICTION_POOL_HH
