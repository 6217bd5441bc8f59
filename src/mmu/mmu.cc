#include "mmu/mmu.hh"

#include "cache/cache_hierarchy.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "mem/physical_memory.hh"

namespace pth
{

Mmu::Mmu(const TlbConfig &tlbConfig, PhysicalMemory &memory,
         CacheHierarchy &caches, unsigned hart)
    : tlbs(tlbConfig), ptWalker(memory, caches, pscs, hart)
{
}

Mmu::Mmu(const Mmu &other, PhysicalMemory &memory, CacheHierarchy &caches)
    : tlbs(other.tlbs), pscs(other.pscs),
      ptWalker(other.ptWalker, memory, caches, pscs), pmc(other.pmc),
      cr3(other.cr3)
{
}

void
Mmu::setRoot(PhysFrame root)
{
    cr3 = root;
    flushTranslationCaches();
}

void
Mmu::flushTranslationCaches()
{
    tlbs.flushAll();
    pscs.flushAll();
}

void
Mmu::invalidatePage(VirtAddr va)
{
    tlbs.invalidate(va >> kPageShift, false);
    tlbs.invalidate(va >> kSuperPageShift, true);
}

TranslateResult
Mmu::translate(VirtAddr va, Cycles now)
{
    ++pmc.tlbLookups;
    TranslateResult result;

    // Probe the 4 KiB translation, then the 2 MiB one.
    TlbLookupResult hit4k = tlbs.lookup(va >> kPageShift, false);
    if (hit4k.hit) {
        result.ok = true;
        result.latency = hit4k.latency;
        result.pa = (hit4k.entry.pfn << kPageShift) | (va & (kPageBytes - 1));
        return result;
    }
    TlbLookupResult hit2m = tlbs.lookup(va >> kSuperPageShift, true);
    if (hit2m.hit) {
        result.ok = true;
        result.huge = true;
        result.latency = std::max(hit4k.latency, hit2m.latency);
        PhysAddr base = hit2m.entry.pfn << kPageShift;
        result.pa = base + (va & (kSuperPageBytes - 1));
        return result;
    }

    // TLB miss: hardware walk (the walker counts it).
    result.causedWalk = true;
    result.latency = hit4k.latency;

    WalkResult walk = ptWalker.walk(cr3, va, now + result.latency);
    result.latency += walk.latency;
    result.walkStartLevel = walk.startLevel;
    result.leafFromDram = walk.leafFromDram;
    if (!walk.ok)
        return result;

    // Both lookups above missed in both levels, so the walked
    // translation is absent: a miss-only fill.
    result.ok = true;
    result.huge = walk.huge;
    if (walk.huge) {
        TlbEntry entry{va >> kSuperPageShift, walk.frame, true};
        tlbs.fill(entry);
        PhysAddr base = walk.frame << kPageShift;
        result.pa = base + (va & (kSuperPageBytes - 1));
    } else {
        TlbEntry entry{va >> kPageShift, walk.frame, false};
        tlbs.fill(entry);
        result.pa = (walk.frame << kPageShift) | (va & (kPageBytes - 1));
    }
    return result;
}

std::uint64_t
Mmu::stateHash() const
{
    std::uint64_t h = hashCombine(cr3, tlbs.stateHash());
    h = hashCombine(h, pscs.stateHash());
    h = hashCombine(h, ptWalker.walks(), ptWalker.pdeCacheStarts());
    // The walk count twice more and a zero: the layout every pinned
    // fingerprint folds.
    h = hashCombine(h, ptWalker.walks(), 0);
    return hashCombine(h, ptWalker.walks(), pmc.tlbLookups);
}

} // namespace pth
