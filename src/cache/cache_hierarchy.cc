#include "cache/cache_hierarchy.hh"

#include "dram/dram.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/table.hh"

namespace pth
{

CacheHierarchy::CacheHierarchy(const CacheHierarchyConfig &config,
                               Dram &dram_, unsigned harts)
    : l2Cache(config.l2, "l2"), llcCache(config.llc, "llc"), dram(dram_)
{
    pth_assert(harts >= 1, "a machine needs at least one hart");
    l1Caches.reserve(harts);
    for (unsigned h = 0; h < harts; ++h)
        l1Caches.emplace_back(config.l1d,
                              h == 0 ? "l1d" : strfmt("l1d#%u", h));
}

CacheHierarchy::CacheHierarchy(const CacheHierarchy &other, Dram &dram_)
    : l1Caches(other.l1Caches), l2Cache(other.l2Cache),
      llcCache(other.llcCache), dram(dram_)
{
}

std::uint64_t
CacheHierarchy::stateHash() const
{
    // The LLC's miss count leads: the layout every pinned fingerprint
    // folds.
    std::uint64_t h = hashCombine(llcCache.misses(), l1Caches[0].stateHash());
    h = hashCombine(h, l2Cache.stateHash(), llcCache.stateHash());
    // Extra harts' private L1s fold in after the single-hart digest so
    // a harts=1 hierarchy hashes byte-identically to the pre-multi-hart
    // code (the harts=1 pin test depends on this).
    for (std::size_t i = 1; i < l1Caches.size(); ++i)
        h = hashCombine(h, l1Caches[i].stateHash());
    return h;
}

MemAccessResult
CacheHierarchy::access(PhysAddr pa, Cycles now, unsigned hart)
{
    Cache &l1Cache = l1Caches.at(hart);
    MemAccessResult result;
    result.latency = l1Cache.config().latency;
    if (l1Cache.access(pa)) {
        result.servedBy = ServedBy::L1;
        return result;
    }

    result.latency += l2Cache.config().latency;
    if (l2Cache.access(pa)) {
        result.servedBy = ServedBy::L2;
        l1Cache.fill(pa);
        return result;
    }

    result.latency += llcCache.config().latency;
    if (llcCache.access(pa)) {
        result.servedBy = ServedBy::Llc;
        l2Cache.fill(pa);
        l1Cache.fill(pa);
        return result;
    }

    // LLC miss: go to memory.
    DramAccessResult dramResult = dram.access(pa, now);
    result.latency += dramResult.latency;
    result.servedBy = ServedBy::Dram;

    // Fill back; every level filled here missed above, as Cache::fill
    // requires. Inclusive LLC: whoever the LLC displaces must leave
    // the core caches too — every hart's L1, not just the accessor's.
    if (auto evicted = llcCache.fill(pa)) {
        for (Cache &l1 : l1Caches)
            l1.invalidate(*evicted);
        l2Cache.invalidate(*evicted);
    }
    l2Cache.fill(pa);
    l1Cache.fill(pa);
    return result;
}

Cycles
CacheHierarchy::clflush(PhysAddr pa)
{
    for (Cache &l1 : l1Caches)
        l1.invalidate(pa);
    l2Cache.invalidate(pa);
    llcCache.invalidate(pa);
    return 60;
}

void
CacheHierarchy::flushAll()
{
    for (Cache &l1 : l1Caches)
        l1.flushAll();
    l2Cache.flushAll();
    llcCache.flushAll();
}

} // namespace pth
