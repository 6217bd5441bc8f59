#include "paging/page_table_walker.hh"

#include "cache/cache_hierarchy.hh"
#include "common/logging.hh"
#include "mem/physical_memory.hh"

namespace pth
{

PageTableWalker::PageTableWalker(PhysicalMemory &memory,
                                 CacheHierarchy &caches_,
                                 PagingStructureCaches &pscs,
                                 unsigned hart)
    : mem(memory), caches(caches_), psc(pscs), hartIndex(hart)
{
}

PageTableWalker::PageTableWalker(const PageTableWalker &other,
                                 PhysicalMemory &memory,
                                 CacheHierarchy &caches_,
                                 PagingStructureCaches &pscs)
    : mem(memory), caches(caches_), psc(pscs),
      hartIndex(other.hartIndex), nWalks(other.nWalks),
      nPdeStarts(other.nPdeStarts)
{
}

WalkResult
PageTableWalker::walk(PhysFrame root, VirtAddr va, Cycles now)
{
    ++nWalks;
    WalkResult result;

    // Find the deepest partial translation: try the PDE cache (which
    // skips straight to the Level-1 PTE fetch), then up the hierarchy.
    PhysFrame table = root;
    unsigned level = 4;
    for (PtLevel cached : {PtLevel::Pde, PtLevel::Pdpte, PtLevel::Pml4e}) {
        if (auto frame = psc.level(cached).lookup(
                PagingStructureCaches::tagFor(va, cached))) {
            table = *frame;
            level = static_cast<unsigned>(cached) - 1;
            break;
        }
    }
    result.startLevel = level;
    if (level == 1)
        ++nPdeStarts;

    // Walk the remaining levels, fetching each entry through the data
    // caches (page-table entries are cacheable data on x86).
    while (true) {
        PtLevel lv = static_cast<PtLevel>(level);
        PhysAddr entryAddr =
            (table << kPageShift) + pteIndex(va, lv) * kPteBytes;
        MemAccessResult fetch =
            caches.access(entryAddr, now + result.latency, hartIndex);
        result.latency += fetch.latency;
        ++result.fetches;

        std::uint64_t entry = mem.read64(entryAddr);
        if (level == 1)
            result.leafFromDram = fetch.fromDram();

        if (!ptePresent(entry) || pteFrame(entry) >= mem.frames())
            return result;  // fault: ok stays false

        if (level == 2 && pteHuge(entry)) {
            result.ok = true;
            result.frame = pteFrame(entry);
            result.huge = true;
            return result;
        }

        if (level == 1) {
            result.ok = true;
            result.frame = pteFrame(entry);
            return result;
        }

        // Interior entry: descend and cache the partial translation.
        PhysFrame child = pteFrame(entry);
        psc.level(lv).insert(PagingStructureCaches::tagFor(va, lv), child);
        table = child;
        --level;
    }
}

} // namespace pth
