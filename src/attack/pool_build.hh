/**
 * @file
 * Fast LLC eviction-pool construction: the group-testing class
 * extraction engine and the sampled-build cost extrapolation models.
 *
 * The single-elimination baseline (Section III-D) removes one
 * candidate per conflict test, so reducing one class of N candidates
 * costs O(N^2) serial accesses. The group-testing reduction splits the
 * working set into ways+1 chunks and discards every chunk the eviction
 * of x does not need, cutting a class to O(ways * N) accesses;
 * batched prime-traverse-probe passes then classify the rest of the
 * class against the survivor set `ways` candidates at a time instead
 * of one conflict test per candidate.
 *
 * Each class runs on its own ClassConflictTester — a private cache
 * hierarchy + DRAM replica addressed with the buffer's real physical
 * addresses, with a per-class noise stream and cycle counter — so
 * classes share no mutable state and extraction is one parallelMap
 * (common/parallel.hh) over the classes, merged in class order: the
 * built pool is byte-identical serial vs. multi-threaded, the same
 * contract the campaign runner guarantees for whole runs.
 */

#ifndef PTH_ATTACK_POOL_BUILD_HH
#define PTH_ATTACK_POOL_BUILD_HH

#include <cstdint>
#include <vector>

#include "attack/attack_config.hh"
#include "attack/eviction_pool.hh"
#include "cache/cache.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "cpu/machine_config.hh"
#include "dram/dram.hh"
#include "mem/physical_memory.hh"

namespace pth
{

/** Work counters shared by both pool-build algorithms. */
struct PoolBuildCounters
{
    /** Timed prime-traverse-probe experiments (one evicts() run, or
     * one batched membership pass per ways-sized candidate batch). */
    std::uint64_t conflictTests = 0;

    /** Simulated line touches those experiments issued. */
    std::uint64_t lineAccesses = 0;

    void
    operator+=(const PoolBuildCounters &other)
    {
        conflictTests += other.conflictTests;
        lineAccesses += other.lineAccesses;
    }
};

/** Everything extracting one congruence class produced. */
struct ClassExtraction
{
    std::vector<EvictionSet> sets;
    Cycles cycles = 0;
    PoolBuildCounters counters;
};

/**
 * Timing-based conflict tester for one candidate class.
 *
 * Owns a private LLC and DRAM replica built from the machine
 * configuration and addressed with the candidates' real physical
 * addresses (translated once by the caller), so conflict outcomes
 * match the ground truth the machine path probes while classes stay
 * independent. The replica models the experiment at the level the
 * timing attack decides on — LLC hit vs. DRAM — charging the full
 * lookup-path latency per access; core-cache residency is a
 * second-order effect the conflict test's threshold margins do not
 * depend on. Translation is modeled as a dTLB hit (the steady state
 * of a pointer chase), and the private DRAM has disturbance switched
 * off — pool construction cannot flip bits in a replica nobody
 * reads.
 */
class ClassConflictTester
{
  public:
    /**
     * @param machine Geometry/timing source for the replicas.
     * @param attack Repeat counts and noise parameters.
     * @param phys Physical line address per candidate index.
     * @param noiseSeed Per-class measurement-noise stream seed.
     */
    ClassConflictTester(const MachineConfig &machine,
                        const AttackConfig &attack,
                        const std::vector<PhysAddr> &phys,
                        std::uint64_t noiseSeed);

    /** The conflict test: does accessing `set` evict candidate x?
     * Majority vote over the configured repeat count, with the
     * traversal order rotated per repeat so replacement-policy
     * pattern flukes decorrelate across the votes.
     *
     * `churn` (optional) is traversed before each repeat. The
     * reduction passes the rest of the class: on a real machine
     * other activity keeps refilling x's set between tests, but a
     * private replica that only ever touches the trial lines goes
     * self-warm — the trial stays resident, a congruent trial
     * produces almost no fills, and a set with exactly `ways`
     * congruent lines reads "not evicted". Churning with the
     * class's other lines (which include x's remaining partners)
     * cold-fills x's set and restores the separation; under true
     * LRU the test stays exact with or without it. */
    bool evicts(std::uint32_t x, const std::vector<std::uint32_t> &set,
                const std::vector<std::uint32_t> *churn = nullptr);

    /**
     * Batched membership: screen the candidates in `rest` against
     * the survivor set with prime-traverse-probe experiments that
     * each handle a whole batch of up to `ways` candidates, then
     * confirm the few screen positives with the standard
     * per-candidate conflict test — one experiment per batch plus
     * one per member, instead of one per candidate. Majority-voted
     * over the repeat count.
     * @return One flag per rest entry: true = congruent.
     */
    std::vector<char> classify(const std::vector<std::uint32_t> &rest,
                               const std::vector<std::uint32_t> &survivors,
                               unsigned ways);

    /** Local cycles consumed so far. */
    Cycles elapsed() const { return clock_; }

    /** Work counters accumulated so far. */
    const PoolBuildCounters &counters() const { return counters_; }

  private:
    /** Access one candidate line, advancing the local clock.
     * @return The access latency. */
    Cycles touch(std::uint32_t idx);

    /** touch() plus measurement noise: the latency the attacker
     * reads. */
    Cycles timedTouch(std::uint32_t idx);

    const AttackConfig &acfg;
    const std::vector<PhysAddr> &phys;
    PhysicalMemory mem;
    Dram dram;
    Cache llc;
    Rng noise;
    Cycles hitPathLatency;
    Cycles threshold;
    Cycles clock_ = 0;
    PoolBuildCounters counters_;
};

/**
 * Extract every group of one candidate class with the group-testing
 * reduction + batched membership classification, on a private
 * ClassConflictTester.
 *
 * @param machine Machine configuration (replica geometry, ways).
 * @param attack Attack configuration (repeats, noise, margins).
 * @param lines Candidate virtual addresses (pool set members).
 * @param phys Matching physical line addresses.
 * @param classIndexHint Class index recorded on extracted sets; ~0
 *        derives the set-index bits of each set's base VIRTUAL line
 *        instead — only its page-offset bits are meaningful on the
 *        regular-page path, exactly like the single-elimination
 *        baseline (candidatesForLineOffset masks to bits 6-11).
 * @param setIndexMask LLC set-index mask used with the hint fallback.
 * @param maxGroups Stop after this many groups (0 = no limit).
 * @param noiseSeed Per-class measurement-noise seed.
 */
ClassExtraction extractClassGroupTesting(
    const MachineConfig &machine, const AttackConfig &attack,
    const std::vector<VirtAddr> &lines, const std::vector<PhysAddr> &phys,
    std::uint64_t classIndexHint, std::uint64_t setIndexMask,
    unsigned maxGroups, std::uint64_t noiseSeed);

/**
 * Full-pool cost estimate for a build whose classes all do the same
 * amount of work (the superpage path): sampled * total / sampled-count
 * computed in double — paper-scale cycle counts overflow the u64
 * product — and rounded to nearest.
 */
Cycles extrapolateUniformClasses(Cycles sampledCycles,
                                 unsigned classesTotal,
                                 unsigned classesSampled);

/**
 * Full-pool cost estimate for the regular-page path's quadratic work
 * model (single elimination), using each class's own candidate
 * count: the reduction for group g of a class with N candidates
 * scans ~(N - 2*ways*g) of them, each test touching the surviving
 * set, so group cost falls off as the square of the remainder. The
 * measured prefix (groupsDone[c] groups of class c, for the sampled
 * class prefix) is extrapolated over every group of every class.
 *
 * @param sampledCycles Cycles actually spent on the measured prefix.
 * @param classCandidates Candidate count of EVERY class (not just the
 *        sampled prefix) — non-uniform buckets extrapolate correctly.
 * @param groupsDone Groups extracted per sampled class (a prefix of
 *        the class list).
 * @param ways LLC associativity.
 */
Cycles extrapolateQuadratic(Cycles sampledCycles,
                            const std::vector<std::size_t> &classCandidates,
                            const std::vector<unsigned> &groupsDone,
                            unsigned ways);

/**
 * The matching estimate for the group-testing path, whose per-group
 * cost decays roughly linearly with the remaining candidates: every
 * reduction test traverses trial-plus-churn ~= the whole class no
 * matter how far the reduction has progressed, and the batched
 * membership passes scale with the remainder. Same parameters as
 * extrapolateQuadratic, weight (N - 2*ways*g) instead of its
 * square.
 */
Cycles extrapolateLinear(Cycles sampledCycles,
                         const std::vector<std::size_t> &classCandidates,
                         const std::vector<unsigned> &groupsDone,
                         unsigned ways);

/**
 * Order-sensitive digest of a pool's sets (class indices and line
 * addresses) — what the serial-vs-parallel byte-identity checks
 * compare.
 */
std::uint64_t poolFingerprint(const std::vector<EvictionSet> &sets);

} // namespace pth

#endif // PTH_ATTACK_POOL_BUILD_HH
