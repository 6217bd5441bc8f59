/**
 * @file
 * Timed hardware page-table walker implementing Figure 2 of the paper.
 *
 * On a TLB miss the walker starts from the deepest paging-structure
 * cache hit (PDE cache first, then PDPTE, then PML4E, else CR3) and
 * fetches the remaining entries through the data-cache hierarchy, so a
 * fetch misses to DRAM exactly when the entry's line is in no cache —
 * the implicit DRAM access PThammer weaponizes.
 */

#ifndef PTH_PAGING_PAGE_TABLE_WALKER_HH
#define PTH_PAGING_PAGE_TABLE_WALKER_HH

#include <cstdint>

#include "common/types.hh"
#include "paging/paging_structure_cache.hh"
#include "paging/pte.hh"

namespace pth
{

class CacheHierarchy;
class PhysicalMemory;

/** Outcome of one timed page-table walk. */
struct WalkResult
{
    bool ok = false;        //!< a present leaf mapping was found
    PhysFrame frame = 0;    //!< translated 4 KiB frame
    bool huge = false;      //!< mapped by a 2 MiB PDE
    Cycles latency = 0;     //!< total walk latency
    unsigned fetches = 0;   //!< page-table entry fetches performed
    bool leafFromDram = false;  //!< the leaf PTE fetch went to DRAM
    unsigned startLevel = 4;    //!< deepest PSC hit + 1 (4 = from CR3)
};

/** The walker. */
class PageTableWalker
{
  public:
    /** @param hart Hart whose private L1 the walker's PTE fetches go
     * through (page-table entries are cacheable data on the fetching
     * core). */
    PageTableWalker(PhysicalMemory &memory, CacheHierarchy &caches,
                    PagingStructureCaches &pscs, unsigned hart = 0);

    /** Copy the walk counters (and hart binding) but rewire the
     * structure references to the new machine's copies (Machine
     * snapshot/fork support). */
    PageTableWalker(const PageTableWalker &other, PhysicalMemory &memory,
                    CacheHierarchy &caches, PagingStructureCaches &pscs);

    /**
     * Walk the tables rooted at root for va at simulated time now.
     * Fills the paging-structure caches with the partial translations
     * discovered on the way down.
     */
    WalkResult walk(PhysFrame root, VirtAddr va, Cycles now);

    /** Total walks performed: the dtlb_load_misses.miss_causes_a_walk
     * event, counted here only. */
    std::uint64_t walks() const { return nWalks; }

    /** Walks that started from a PDE-cache hit (PThammer's fast path). */
    std::uint64_t pdeCacheStarts() const { return nPdeStarts; }

  private:
    PhysicalMemory &mem;
    CacheHierarchy &caches;
    PagingStructureCaches &psc;
    unsigned hartIndex;
    std::uint64_t nWalks = 0;
    std::uint64_t nPdeStarts = 0;
};

} // namespace pth

#endif // PTH_PAGING_PAGE_TABLE_WALKER_HH
