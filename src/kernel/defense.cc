#include "kernel/defense.hh"

#include "common/logging.hh"
#include "common/random.hh"

namespace pth
{

std::string
defenseKindName(DefenseKind kind)
{
    switch (kind) {
      case DefenseKind::None:
        return "none";
      case DefenseKind::Catt:
        return "CATT";
      case DefenseKind::RipRh:
        return "RIP-RH";
      case DefenseKind::Cta:
        return "CTA";
      case DefenseKind::ZebRam:
        return "ZebRAM";
    }
    return "?";
}

namespace
{

/** First frames are reserved for the kernel image / boot structures. */
constexpr PhysFrame kReservedFrames = 256;

} // namespace

Defense::Defense(DefenseKind kind_, const AddressMapping &mapping,
                 const VulnerabilityModel &vulnerability,
                 std::uint64_t totalFrames_)
    : kind(kind_), map(mapping), vuln(vulnerability),
      totalFrames(totalFrames_)
{
    pth_assert(totalFrames > 2 * kReservedFrames, "memory too small");
    // A full row-index stride of frames: one row in every bank.
    const std::uint64_t rowFrames =
        mapping.rowBytes() * mapping.banks() / kPageBytes;
    switch (kind) {
      case DefenseKind::None:
        pool = BuddyAllocator(kReservedFrames, totalFrames - kReservedFrames);
        return;
      case DefenseKind::Catt:
        // The kernel zone takes the low quarter; a full row-index
        // stride of guard frames separates it from user memory, so no
        // user-reachable row is adjacent to a kernel row.
        kernelEnd = kReservedFrames + (totalFrames / 4);
        userStart = kernelEnd + rowFrames;
        pool = BuddyAllocator(kReservedFrames, kernelEnd - kReservedFrames);
        userPool = BuddyAllocator(userStart, totalFrames - userStart);
        return;
      case DefenseKind::RipRh:
        kernelEnd = kReservedFrames + (totalFrames / 4);
        userStart = kernelEnd;
        // One region per user; enough regions for realistic process
        // counts, but never so many that a region cannot hold a
        // process's working set (>= 32 MiB each).
        partitionCount = 64;
        while (partitionCount > 4 &&
               (totalFrames - userStart) / partitionCount < 8192)
            partitionCount /= 2;
        userFramesPerPartition = (totalFrames - userStart) / partitionCount;
        // Keep one guard row between neighbouring user partitions.
        guardFrames = rowFrames;
        pool = BuddyAllocator(kReservedFrames, kernelEnd - kReservedFrames);
        return;
      case DefenseKind::Cta: {
        // The top 3/8 of physical memory is reserved for L1PTs; rows
        // containing anti cells are screened out (CTA's memory test).
        const PhysFrame ptZoneStart = totalFrames - (totalFrames * 3) / 8;
        cursor = {ptZoneStart, totalFrames, totalFrames, true, {}};
        pool = BuddyAllocator(kReservedFrames, ptZoneStart - kReservedFrames);
        return;
      }
      case DefenseKind::ZebRam:
        cursor = {kReservedFrames, totalFrames, kReservedFrames, false, {}};
        return;
    }
    panic("unknown defense kind");
}

PhysFrame
Defense::alloc(AllocIntent intent, std::uint64_t owner)
{
    switch (kind) {
      case DefenseKind::None:
        return pool.alloc();
      case DefenseKind::Catt: {
        if (intent == AllocIntent::UserData)
            return userPool.alloc();
        PhysFrame f = pool.alloc();
        if (f != kInvalidFrame)
            return f;
        // Kernel zone exhausted: like the deployed CATT prototype, the
        // allocator falls back to movable (user) memory rather than
        // failing — the weakness Cheng et al. (CATTmew) identified and
        // that the paper's Section IV-G1 attack provokes on purpose.
        if (!warnedFallback) {
            warn("CATT kernel zone exhausted; falling back to user zone");
            warnedFallback = true;
        }
        return userPool.alloc();
      }
      case DefenseKind::RipRh:
        if (intent != AllocIntent::UserData) {
            PhysFrame f = pool.alloc();
            if (f != kInvalidFrame)
                return f;
            // RIP-RH protects user-user isolation only; the kernel
            // spills into user memory under pressure.
        }
        return partitionFor(owner).alloc();
      case DefenseKind::Cta:
        // An exhausted L1PT zone is not refilled from elsewhere: the
        // caller fails hard on kInvalidFrame.
        if (intent == AllocIntent::PageTableL1)
            return cursorAlloc();
        return pool.alloc();
      case DefenseKind::ZebRam:
        return cursorAlloc();
    }
    return kInvalidFrame;
}

void
Defense::free(PhysFrame frame, AllocIntent intent, std::uint64_t owner)
{
    switch (kind) {
      case DefenseKind::None:
        pool.free(frame);
        return;
      case DefenseKind::Catt:
        if (intent == AllocIntent::UserData || frame >= userStart)
            userPool.free(frame);
        else
            pool.free(frame);
        return;
      case DefenseKind::RipRh:
        if (intent != AllocIntent::UserData && frame < kernelEnd)
            pool.free(frame);
        else
            partitionFor(owner).free(frame);
        return;
      case DefenseKind::Cta:
        if (intent == AllocIntent::PageTableL1)
            cursor.recycled.insert(frame);
        else
            pool.free(frame);
        return;
      case DefenseKind::ZebRam:
        cursor.recycled.insert(frame);
        return;
    }
}

bool
Defense::frameAllowed(AllocIntent intent, PhysFrame frame) const
{
    switch (kind) {
      case DefenseKind::None:
        return pool.contains(frame);
      case DefenseKind::Catt:
      case DefenseKind::RipRh:
        if (intent == AllocIntent::UserData)
            return frame >= userStart;
        // Kernel intents: the dedicated zone, or the documented
        // exhaustion fallback into user memory.
        return frame >= kReservedFrames;
      case DefenseKind::Cta:
        if (intent == AllocIntent::PageTableL1)
            return frame >= cursor.lo && rowAllowed(frame);
        return frame >= kReservedFrames && frame < cursor.lo;
      case DefenseKind::ZebRam:
        return frame >= kReservedFrames && rowAllowed(frame);
    }
    return false;
}

std::uint64_t
Defense::zoneFrames(AllocIntent intent) const
{
    switch (kind) {
      case DefenseKind::None:
        return pool.totalFrames();
      case DefenseKind::Catt:
        return intent == AllocIntent::UserData ? userPool.totalFrames()
                                               : pool.totalFrames();
      case DefenseKind::RipRh:
        return intent == AllocIntent::UserData ? userFramesPerPartition
                                               : pool.totalFrames();
      case DefenseKind::Cta:
        if (intent == AllocIntent::PageTableL1)
            return 0;  // cursor-based; capacity not meaningfully bounded
        return pool.totalFrames();
      case DefenseKind::ZebRam:
        return totalFrames / 2;
    }
    return 0;
}

std::uint64_t
Defense::stateHash() const
{
    std::uint64_t cursorHash = hashCombine(0xc0a5, cursor.lo, cursor.hi,
                                           cursor.next);
    cursorHash = hashCombine(cursorHash, cursor.descending);
    for (PhysFrame frame : cursor.recycled)  // std::set: ordered
        cursorHash = hashCombine(cursorHash, frame);

    switch (kind) {
      case DefenseKind::None:
        return hashCombine(0xd0, pool.stateHash());
      case DefenseKind::Catt: {
        std::uint64_t h = hashCombine(0xd1, kernelEnd, userStart);
        return hashCombine(h, warnedFallback, pool.stateHash(),
                           userPool.stateHash());
      }
      case DefenseKind::RipRh: {
        std::uint64_t h = hashCombine(0xd2, kernelEnd, userStart);
        h = hashCombine(h, partitionCount, userFramesPerPartition,
                        guardFrames);
        h = hashCombine(h, pool.stateHash());
        // determinism: commutative fold — iteration order of the
        // unordered map cannot affect the sum.
        std::uint64_t fold = 0;
        for (const auto &[idx, partition] : partitions)
            fold += mix64(hashCombine(idx, partition.stateHash()));
        return hashCombine(h, fold);
      }
      case DefenseKind::Cta:
        return hashCombine(0xd3, cursor.lo, cursorHash, pool.stateHash());
      case DefenseKind::ZebRam:
        return hashCombine(0xd4, totalFrames, cursorHash);
    }
    return 0;
}

PhysFrame
Defense::cursorAlloc()
{
    if (!cursor.recycled.empty()) {
        PhysFrame f = *cursor.recycled.begin();
        cursor.recycled.erase(cursor.recycled.begin());
        return f;
    }
    while (true) {
        if (cursor.descending) {
            if (cursor.next == cursor.lo)
                return kInvalidFrame;
            --cursor.next;
            if (rowAllowed(cursor.next))
                return cursor.next;
        } else {
            if (cursor.next == cursor.hi)
                return kInvalidFrame;
            PhysFrame f = cursor.next++;
            if (rowAllowed(f))
                return f;
        }
    }
}

bool
Defense::rowAllowed(PhysFrame frame) const
{
    DramLocation loc = map.decompose(frame << kPageShift);
    if (kind == DefenseKind::Cta)
        return vuln.rowHasOnlyTrueCells(loc.bank, loc.row);
    return (loc.row & 1) == 0;
}

BuddyAllocator &
Defense::partitionFor(std::uint64_t owner)
{
    unsigned idx = static_cast<unsigned>(owner % partitionCount);
    auto it = partitions.find(idx);
    if (it == partitions.end()) {
        PhysFrame start = userStart + idx * userFramesPerPartition;
        std::uint64_t usable = userFramesPerPartition > guardFrames
                                   ? userFramesPerPartition - guardFrames
                                   : userFramesPerPartition;
        it = partitions.try_emplace(idx, start, usable).first;
    }
    return it->second;
}

} // namespace pth
