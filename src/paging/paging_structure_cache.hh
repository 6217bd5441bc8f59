/**
 * @file
 * Paging-structure caches (Barr et al., "Translation caching: skip,
 * don't walk"). One small LRU cache per upper page-table level stores
 * partial translations:
 *
 *   PML4E cache : va[47:39] -> PDPT frame
 *   PDPTE cache : va[47:30] -> PD frame
 *   PDE cache   : va[47:21] -> L1PT frame
 *
 * PThammer's fast path needs the walk to *hit* the PDE cache (so only
 * the Level-1 PTE is fetched from memory) — the red path of Figure 2.
 */

#ifndef PTH_PAGING_PAGING_STRUCTURE_CACHE_HH
#define PTH_PAGING_PAGING_STRUCTURE_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "paging/pte.hh"

namespace pth
{

/** Sizes of the three paging-structure caches. */
struct PscConfig
{
    unsigned pml4Entries = 16;
    unsigned pdpteEntries = 16;
    unsigned pdeEntries = 32;

    /** Field-wise equality (campaign snapshot-sharing detection). */
    bool operator==(const PscConfig &) const = default;
};

/** One fully-associative LRU partial-translation cache. */
class PagingStructureCache
{
  public:
    explicit PagingStructureCache(unsigned entries);

    /** Look up a partial translation by its tag. */
    std::optional<PhysFrame> lookup(std::uint64_t tag);

    /** Presence check without LRU update. */
    bool contains(std::uint64_t tag) const;

    /** Insert (evicting the LRU victim when full). */
    void insert(std::uint64_t tag, PhysFrame frame);

    /** Drop everything (CR3 write). */
    void flushAll();

    /** Valid entry count. */
    unsigned validEntries() const;

    /** Digest of every slot, LRU stamps included (snapshot audits). */
    std::uint64_t stateHash() const;

  private:
    struct Slot
    {
        std::uint64_t tag = 0;
        PhysFrame frame = 0;
        std::uint64_t stamp = 0;
        bool valid = false;
    };

    unsigned capacity;
    std::uint64_t tick = 0;
    std::vector<Slot> slots;
};

/** The per-level trio, with tag extraction per level. */
class PagingStructureCaches
{
  public:
    explicit PagingStructureCaches(const PscConfig &config);

    /** Tag for a va at the cache of the given upper level. */
    static std::uint64_t tagFor(VirtAddr va, PtLevel level);

    /** The cache caching entries *of* the given level (2, 3 or 4). */
    PagingStructureCache &level(PtLevel level);
    const PagingStructureCache &level(PtLevel level) const;

    /** Flush all three (CR3 write). */
    void flushAll();

    /** Digest of all three caches (snapshot audits). */
    std::uint64_t stateHash() const;

  private:
    PagingStructureCache pml4Cache;
    PagingStructureCache pdpteCache;
    PagingStructureCache pdeCache;
};

} // namespace pth

#endif // PTH_PAGING_PAGING_STRUCTURE_CACHE_HH
