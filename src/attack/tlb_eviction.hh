/**
 * @file
 * TLB eviction sets (Section III-C).
 *
 * The tool allocates a pool of pages covering every sTLB set several
 * times over (Table II's "TLB preparation"), implements Algorithm 1 —
 * discovering the minimal eviction-set size empirically with the PMC
 * TLB-miss event, because the replacement policy is not true LRU — and
 * hands out per-target eviction sets in O(1) (the paper's ~1 us "TLB
 * set selection").
 */

#ifndef PTH_ATTACK_TLB_EVICTION_HH
#define PTH_ATTACK_TLB_EVICTION_HH

#include <cstdint>
#include <vector>

#include "attack/attack_config.hh"
#include "common/types.hh"

namespace pth
{

class Machine;
class KernelModule;

/** Algorithm 1 profiling repetitions. */
inline constexpr unsigned kTlbProfileCount = 64;

/** TLB pool over-provisioning factor (paper: eight times). */
inline constexpr unsigned kTlbPoolFactor = 8;

/** Builder and provider of TLB eviction sets. */
class TlbEvictionTool
{
  public:
    TlbEvictionTool(Machine &machine, const AttackConfig &);

    /**
     * Allocate and populate the page pool (one mmap + touch per page,
     * which is what the paper's preparation time measures).
     * @return Simulated cycles spent.
     */
    Cycles prepare();

    /** True once prepare() ran. */
    bool prepared() const { return !poolPages.empty(); }

    /**
     * Miss probability induced on target by flushing with the given
     * eviction set (the profile_tlb_set function of Algorithm 1).
     * Uses the PMC walk counter via the kernel module, as the paper's
     * calibration does.
     */
    double profileMissRate(VirtAddr target,
                           const std::vector<VirtAddr> &set,
                           unsigned count, KernelModule &pmc);

    /**
     * Algorithm 1: find the minimal eviction-set size for a target.
     */
    unsigned findMinimalSetSize(VirtAddr target, KernelModule &pmc);

    /**
     * Pick size pool pages congruent with the target (same sTLB set).
     * Constant-time: the mapping is reverse-engineered, so selection
     * is just indexing (the paper's ~1 us selection cost).
     */
    std::vector<VirtAddr> evictionSetFor(VirtAddr target,
                                         unsigned size) const;

    /** Convenience: evict the target's TLB entry right now. Reuses
     * one buffer, so a call allocates nothing once it has grown. */
    void evictNow(VirtAddr target, unsigned size);

    /** Default working size (minimal size + configured margin). */
    unsigned workingSetSize() const { return workingSize; }

    /** Override the working size (set from Algorithm 1's result). */
    void setWorkingSetSize(unsigned size) { workingSize = size; }

  private:
    /** Replace set with evictionSetFor(target, size). */
    void collectEvictionSet(VirtAddr target, unsigned size,
                            std::vector<VirtAddr> &set) const;

    Machine &m;
    std::uint64_t l2Sets;
    unsigned pagesPerSet;
    std::vector<VirtAddr> poolPages;  //!< indexed [set * pagesPerSet + i]
    unsigned workingSize = 12;
    std::vector<VirtAddr> evictBuffer;  //!< evictNow's set, reused
};

} // namespace pth

#endif // PTH_ATTACK_TLB_EVICTION_HH
