/**
 * @file
 * Algorithm 2: select, from the pre-built pool, the LLC eviction set
 * congruent with the Level-1 PTE of a target virtual address — without
 * ever learning the PTE's physical address.
 *
 * Candidate sets are those sharing the L1PTE's page offset (Oren et
 * al.'s property); each is profiled by evicting the target's TLB entry
 * and timing the target access: the congruent set forces the PTE fetch
 * to DRAM and shows the largest median latency.
 */

#ifndef PTH_ATTACK_EVICTION_SELECTION_HH
#define PTH_ATTACK_EVICTION_SELECTION_HH

#include <cstdint>
#include <vector>

#include "attack/attack_config.hh"
#include "attack/eviction_pool.hh"
#include "attack/timing.hh"
#include "attack/tlb_eviction.hh"
#include "common/types.hh"

namespace pth
{

class Machine;

/** Result of one Algorithm-2 selection. */
struct SetSelection
{
    const EvictionSet *set = nullptr;  //!< winner (never null on success)
    Cycles elapsed = 0;                //!< simulated selection time
    double maxMedianLatency = 0;       //!< the winning median
};

/** Algorithm 2 implementation. */
class EvictionSetSelector
{
  public:
    EvictionSetSelector(Machine &machine, const AttackConfig &config,
                        LlcEvictionPool &pool, TlbEvictionTool &tlbTool);

    /**
     * Select the eviction set for target's L1PTE.
     *
     * The target must be page-aligned but *not* superpage-aligned so
     * that the target's own line and its L1PTE line land in different
     * cache sets (Section III-D, last paragraph).
     */
    SetSelection select(VirtAddr target);

    /** Line-index (bits 6-11) of the L1PTE that maps va. */
    static std::uint64_t l1pteLineOffset(VirtAddr va);

  private:
    /** profile_evict_set of Algorithm 2: median timed latency.
     * Reuses the buffers below, so a call allocates nothing once they
     * have grown. */
    double profileSet(const EvictionSet &set, VirtAddr target);

    Machine &m;
    const AttackConfig &cfg;
    LlcEvictionPool &pool;
    TlbEvictionTool &tlbTool;
    LatencyProbe probe;
    std::vector<VirtAddr> lineBuffer;    //!< profileSet's working set
    std::vector<double> latencyBuffer;   //!< profileSet's timings
};

} // namespace pth

#endif // PTH_ATTACK_EVICTION_SELECTION_HH
