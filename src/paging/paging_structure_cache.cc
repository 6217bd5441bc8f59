#include "paging/paging_structure_cache.hh"

#include "common/random.hh"

namespace pth
{

PagingStructureCache::PagingStructureCache(unsigned entries)
    : tags(1, entries, ReplacementKind::Lru, 0), frames(entries, 0)
{
}

std::uint64_t
PagingStructureCache::stateHash() const
{
    const ReplacementPolicy &lru = tags.replacement();
    std::uint64_t h = hashCombine(0x95c, lru.lruTick());
    for (std::uint64_t i = 0; i < tags.size(); ++i) {
        h = hashCombine(h, tags.valid(i), tags.key(i));
        h = hashCombine(h, frames[i], lru.lruStamp(i));
    }
    return h;
}

PagingStructureCaches::PagingStructureCaches()
    : caches{PagingStructureCache(kPdeCacheEntries),
             PagingStructureCache(kPdpteCacheEntries),
             PagingStructureCache(kPml4eCacheEntries)}
{
}

std::uint64_t
PagingStructureCaches::tagFor(VirtAddr va, PtLevel level)
{
    // va >> (12 + 9 * (level - 1)): 21 bits at the PDE cache, 9 more
    // per level up.
    return va >> (21 + 9 * index(level));
}

void
PagingStructureCaches::flushAll()
{
    for (PagingStructureCache &cache : caches)
        cache.flushAll();
}

std::uint64_t
PagingStructureCaches::stateHash() const
{
    return hashCombine(caches[2].stateHash(), caches[1].stateHash(),
                       caches[0].stateHash());
}

} // namespace pth
