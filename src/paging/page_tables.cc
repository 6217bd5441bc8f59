#include "paging/page_tables.hh"

#include "common/logging.hh"
#include "mem/physical_memory.hh"

namespace pth
{

PageTables::PageTables(PhysicalMemory &memory, FrameSource allocator)
    : mem(memory), alloc(std::move(allocator))
{
    rootFrame = alloc(PtLevel::Pml4e);
    frames.push_back(rootFrame);
    mem.fillFramePattern(rootFrame, 0);
}

PageTables::PageTables(const PageTables &other, PhysicalMemory &memory,
                       FrameSource allocator)
    : mem(memory), alloc(std::move(allocator)), rootFrame(other.rootFrame),
      frames(other.frames)
{
}

std::uint64_t
PageTables::readEntry(PhysFrame table, VirtAddr va, PtLevel level) const
{
    PhysAddr ea = (table << kPageShift) + pteIndex(va, level) * kPteBytes;
    return mem.read64(ea);
}

void
PageTables::writeEntry(PhysFrame table, VirtAddr va, PtLevel level,
                       std::uint64_t entry)
{
    PhysAddr ea = (table << kPageShift) + pteIndex(va, level) * kPteBytes;
    mem.write64(ea, entry);
}

PhysFrame
PageTables::tableFor(VirtAddr va, PtLevel target)
{
    PhysFrame table = rootFrame;
    for (unsigned level = 4; level > static_cast<unsigned>(target);
         --level) {
        PtLevel lv = static_cast<PtLevel>(level);
        std::uint64_t entry = readEntry(table, va, lv);
        if (!ptePresent(entry)) {
            // Allocate the next-level table.
            PtLevel childLevel = static_cast<PtLevel>(level - 1);
            PhysFrame child = alloc(childLevel);
            frames.push_back(child);
            mem.fillFramePattern(child, 0);
            writeEntry(table, va, lv, makePte(child));
            table = child;
        } else {
            pth_assert(!pteHuge(entry),
                       "walking through an existing huge mapping");
            table = pteFrame(entry);
        }
    }
    return table;
}

void
PageTables::map4k(VirtAddr va, PhysFrame frame)
{
    PhysFrame l1pt = tableFor(va, PtLevel::Pte);
    writeEntry(l1pt, va, PtLevel::Pte, makePte(frame));
}

void
PageTables::mapRange4kSameFrame(VirtAddr vaStart, std::uint64_t count,
                                PhysFrame frame)
{
    pth_assert((vaStart & (kPageBytes - 1)) == 0, "unaligned spray start");
    std::uint64_t pte = makePte(frame);
    std::uint64_t done = 0;
    while (done < count) {
        VirtAddr va = vaStart + done * kPageBytes;
        PhysFrame l1pt = tableFor(va, PtLevel::Pte);
        std::uint64_t idx = pteIndex(va, PtLevel::Pte);
        std::uint64_t inThisTable =
            std::min<std::uint64_t>(kPtesPerPage - idx, count - done);
        if (idx == 0 && inThisTable == kPtesPerPage) {
            // A whole L1PT page with identical entries: use the
            // compressed pattern representation.
            mem.fillFramePattern(l1pt, pte);
        } else {
            for (std::uint64_t i = 0; i < inThisTable; ++i)
                writeEntry(l1pt, va + i * kPageBytes, PtLevel::Pte, pte);
        }
        done += inThisTable;
    }
}

void
PageTables::map2m(VirtAddr va, PhysFrame firstFrame)
{
    pth_assert((va & (kSuperPageBytes - 1)) == 0, "unaligned 2 MiB va");
    pth_assert((firstFrame & 0x1ff) == 0, "unaligned 2 MiB frame");
    PhysFrame pd = tableFor(va, PtLevel::Pde);
    writeEntry(pd, va, PtLevel::Pde,
               makePte(firstFrame, true, true, true));
}

void
PageTables::unmap4k(VirtAddr va)
{
    auto l1pt = l1ptFrame(va);
    if (l1pt)
        writeEntry(*l1pt, va, PtLevel::Pte, 0);
}

std::optional<FunctionalTranslation>
PageTables::translate(VirtAddr va) const
{
    PhysFrame table = rootFrame;
    for (unsigned level = 4; level >= 1; --level) {
        PtLevel lv = static_cast<PtLevel>(level);
        std::uint64_t entry = readEntry(table, va, lv);
        // A rowhammer flip can set PFN bits beyond the installed
        // memory; such accesses hit a hole in the physical map and
        // fault, which the attacker observes as a lost mapping.
        if (!ptePresent(entry) || pteFrame(entry) >= mem.frames())
            return std::nullopt;
        if (level == 2 && pteHuge(entry)) {
            // The 4 KiB frame inside the 2 MiB mapping faults like a
            // leaf past the end of memory.
            FunctionalTranslation t;
            t.frame = pteFrame(entry) + ((va >> kPageShift) & 0x1ff);
            if (t.frame >= mem.frames())
                return std::nullopt;
            t.huge = true;
            return t;
        }
        if (level == 1) {
            FunctionalTranslation t;
            t.frame = pteFrame(entry);
            return t;
        }
        table = pteFrame(entry);
    }
    return std::nullopt;
}

std::optional<PhysAddr>
PageTables::l1pteAddress(VirtAddr va) const
{
    auto l1pt = l1ptFrame(va);
    if (!l1pt)
        return std::nullopt;
    return (*l1pt << kPageShift) + pteIndex(va, PtLevel::Pte) * kPteBytes;
}

std::optional<PhysFrame>
PageTables::l1ptFrame(VirtAddr va) const
{
    PhysFrame table = rootFrame;
    for (unsigned level = 4; level >= 2; --level) {
        PtLevel lv = static_cast<PtLevel>(level);
        std::uint64_t entry = readEntry(table, va, lv);
        if (!ptePresent(entry) || (level == 2 && pteHuge(entry)) ||
            pteFrame(entry) >= mem.frames())
            return std::nullopt;
        table = pteFrame(entry);
    }
    return table;
}

} // namespace pth
