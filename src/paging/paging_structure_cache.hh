/**
 * @file
 * Paging-structure caches (Barr et al., "Translation caching: skip,
 * don't walk"). One small fully-associative LRU cache per upper
 * page-table level stores partial translations:
 *
 *   PML4E cache : va[47:39] -> PDPT frame
 *   PDPTE cache : va[47:30] -> PD frame
 *   PDE cache   : va[47:21] -> L1PT frame
 *
 * Each is a one-set SetAssocArray with LRU replacement, the frames
 * kept beside the tags as Tlb keeps its pfns. PThammer's fast path
 * needs the walk to *hit* the PDE cache (so only the Level-1 PTE is
 * fetched from memory) — the red path of Figure 2.
 */

#ifndef PTH_PAGING_PAGING_STRUCTURE_CACHE_HH
#define PTH_PAGING_PAGING_STRUCTURE_CACHE_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "cache/set_assoc.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "paging/pte.hh"

namespace pth
{

/** Entries of the PML4E, PDPTE and PDE caches. */
inline constexpr unsigned kPml4eCacheEntries = 16;
inline constexpr unsigned kPdpteCacheEntries = 16;
inline constexpr unsigned kPdeCacheEntries = 32;

/** One fully-associative LRU partial-translation cache. */
class PagingStructureCache
{
  public:
    explicit PagingStructureCache(unsigned entries);

    /** Look up a partial translation by its tag. */
    std::optional<PhysFrame> lookup(std::uint64_t tag)
    {
        std::uint64_t slot = tags.lookup(0, tag);
        if (slot == SetAssocArray::npos)
            return std::nullopt;
        return frames[slot];
    }

    /** Presence check without LRU update. */
    bool contains(std::uint64_t tag) const { return tags.contains(0, tag); }

    /** Insert (evicting the LRU victim when full), or refresh the tag
     * in place when already present. */
    void insert(std::uint64_t tag, PhysFrame frame)
    {
        frames[tags.place(0, tag).slot] = frame;
    }

    /** Drop everything (CR3 write). */
    void flushAll() { tags.flushAll(); }

    /** Valid entry count. */
    unsigned validEntries() const
    {
        return static_cast<unsigned>(tags.validCount());
    }

    /** Digest of every slot, LRU stamps included (snapshot audits). */
    std::uint64_t stateHash() const;

  private:
    SetAssocArray tags;             //!< one set, keyed by tag
    std::vector<PhysFrame> frames;  //!< beside tags, same slot order
};

/** The per-level trio, with tag extraction per level. */
class PagingStructureCaches
{
  public:
    PagingStructureCaches();

    /** Tag for a va at the cache of the given upper level. */
    static std::uint64_t tagFor(VirtAddr va, PtLevel level);

    /** The cache caching entries *of* the given level (2, 3 or 4). */
    PagingStructureCache &level(PtLevel level)
    {
        return caches[index(level)];
    }

    /** Flush all three (CR3 write). */
    void flushAll();

    /** Digest of all three caches (snapshot audits). */
    std::uint64_t stateHash() const;

  private:
    /** Slot of a level's cache in caches. */
    static unsigned index(PtLevel level)
    {
        if (level == PtLevel::Pte)
            panic("no paging-structure cache for level 1");
        return static_cast<unsigned>(level) - 2;
    }

    std::array<PagingStructureCache, 3> caches;  //!< PDE, PDPTE, PML4E
};

} // namespace pth

#endif // PTH_PAGING_PAGING_STRUCTURE_CACHE_HH
