/**
 * @file
 * Memory-management unit: the Figure-2 translation flow.
 *
 * translate() consults the two-level TLB, then the paging-structure
 * caches via the hardware walker, fetching page-table entries through
 * the data caches and filling TLB + PSCs on the way out.
 */

#ifndef PTH_MMU_MMU_HH
#define PTH_MMU_MMU_HH

#include <cstdint>

#include "common/types.hh"
#include "mmu/perf_counters.hh"
#include "paging/page_table_walker.hh"
#include "paging/paging_structure_cache.hh"
#include "tlb/two_level_tlb.hh"

namespace pth
{

class CacheHierarchy;
class PhysicalMemory;

/** Outcome of one timed address translation. */
struct TranslateResult
{
    bool ok = false;
    PhysAddr pa = 0;           //!< translated physical address
    bool huge = false;
    Cycles latency = 0;        //!< translation-only latency
    bool causedWalk = false;   //!< TLB miss walked the tables
    bool leafFromDram = false; //!< the L1PTE fetch reached DRAM
    unsigned walkStartLevel = 0;  //!< 0 when no walk happened
};

/** The MMU. */
class Mmu
{
  public:
    /** @param hart Hart this MMU serves; its page-table walker fetches
     * PTEs through that hart's private L1. */
    Mmu(const TlbConfig &tlbConfig, PhysicalMemory &memory,
        CacheHierarchy &caches, unsigned hart = 0);

    /** Deep copy rewired to the new machine's memory and caches
     * (Machine snapshot/fork): TLBs, PSCs, walker counters, the
     * lookup counter and CR3 all carry over. */
    Mmu(const Mmu &other, PhysicalMemory &memory, CacheHierarchy &caches);

    /** Install a new address space root (CR3 write: flushes TLB+PSC). */
    void setRoot(PhysFrame root);

    /** Current CR3 frame. */
    PhysFrame root() const { return cr3; }

    /** Translate va at simulated time now. */
    TranslateResult translate(VirtAddr va, Cycles now);

    /** Privileged invlpg. */
    void invalidatePage(VirtAddr va);

    /** Flush TLB and paging-structure caches (CR3 reload). */
    void flushTranslationCaches();

    /** Structures, exposed for tests and the attack's set mapping. */
    TwoLevelTlb &tlb() { return tlbs; }
    PageTableWalker &walker() { return ptWalker; }
    const PerfCounters &counters() const { return pmc; }

    /** Digest of TLBs, PSCs, walker and lookup counters, and CR3
     * (snapshot audits). */
    std::uint64_t stateHash() const;

  private:
    TwoLevelTlb tlbs;
    PagingStructureCaches pscs;
    PageTableWalker ptWalker;
    PerfCounters pmc;
    PhysFrame cr3 = 0;
};

} // namespace pth

#endif // PTH_MMU_MMU_HH
