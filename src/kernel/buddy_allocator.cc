#include "kernel/buddy_allocator.hh"

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace pth
{

BuddyAllocator::BuddyAllocator(PhysFrame firstFrame,
                               std::uint64_t frameCount)
    : first(firstFrame), count(frameCount), freeLists(kMaxOrder + 1)
{
    // Carve the range into maximal naturally-aligned blocks.
    PhysFrame frame = firstFrame;
    std::uint64_t remaining = frameCount;
    while (remaining) {
        unsigned order = kMaxOrder;
        while (order > 0 &&
               (((frame - first) & ((1ull << order) - 1)) != 0 ||
                (1ull << order) > remaining)) {
            --order;
        }
        insertFree(frame, order);
        frame += 1ull << order;
        remaining -= 1ull << order;
    }
}

PhysFrame
BuddyAllocator::buddyOf(PhysFrame frame, unsigned order) const
{
    return first + (((frame - first) ^ (1ull << order)));
}

void
BuddyAllocator::insertFree(PhysFrame frame, unsigned order)
{
    freeLists[order].insert(frame);
    nFree += 1ull << order;
}

PhysFrame
BuddyAllocator::alloc(unsigned order)
{
    pth_assert(order <= kMaxOrder, "order too large");

    unsigned found = order;
    while (found <= kMaxOrder && freeLists[found].empty())
        ++found;
    if (found > kMaxOrder)
        return kInvalidFrame;

    PhysFrame frame = *freeLists[found].begin();
    freeLists[found].erase(freeLists[found].begin());
    nFree -= 1ull << found;

    // Split down to the requested order, returning the upper halves.
    while (found > order) {
        --found;
        insertFree(frame + (1ull << found), found);
    }
    return frame;
}

void
BuddyAllocator::free(PhysFrame frame, unsigned order)
{
    pth_assert(contains(frame), "freeing frame outside allocator");
    nFree += 1ull << order;

    // Coalesce with the buddy while possible.
    while (order < kMaxOrder) {
        PhysFrame buddy = buddyOf(frame, order);
        auto it = freeLists[order].find(buddy);
        if (it == freeLists[order].end())
            break;
        freeLists[order].erase(it);
        frame = std::min(frame, buddy);
        ++order;
    }
    freeLists[order].insert(frame);
}

bool
BuddyAllocator::contains(PhysFrame frame) const
{
    return frame >= first && frame < first + count;
}

std::uint64_t
BuddyAllocator::stateHash() const
{
    std::uint64_t h = hashCombine(0xb0dd, first, count, nFree);
    for (std::size_t order = 0; order < freeLists.size(); ++order)
        for (PhysFrame frame : freeLists[order])  // std::set: ordered
            h = hashCombine(h, order, frame);
    return h;
}

} // namespace pth
