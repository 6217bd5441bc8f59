/**
 * @file
 * Physical-frame allocator.
 *
 * BuddyAllocator mirrors the Linux buddy system's tendency to hand out
 * *consecutive* physical pages under streaming allocation — the
 * property the paper's pair-selection step exploits (Section IV-D).
 */

#ifndef PTH_KERNEL_BUDDY_ALLOCATOR_HH
#define PTH_KERNEL_BUDDY_ALLOCATOR_HH

#include <cstdint>
#include <set>
#include <vector>

#include "common/types.hh"

namespace pth
{

/** Binary buddy allocator over a contiguous frame range. */
class BuddyAllocator
{
  public:
    /** Highest supported order (2^10 frames = 4 MiB blocks). */
    static constexpr unsigned kMaxOrder = 10;

    /**
     * @param firstFrame First frame managed.
     * @param frameCount Number of frames managed (any value; the range
     *        is carved into power-of-two blocks).
     */
    BuddyAllocator(PhysFrame firstFrame, std::uint64_t frameCount);

    /**
     * Allocate a 2^order-frame block, lowest address first.
     * @return First frame of the block, or kInvalidFrame when empty.
     */
    PhysFrame alloc(unsigned order = 0);

    /** Free a block previously allocated with the same order. */
    void free(PhysFrame frame, unsigned order = 0);

    /** Frames currently free. */
    std::uint64_t freeFrames() const { return nFree; }

    /** Total frames managed. */
    std::uint64_t totalFrames() const { return count; }

    /** True when the frame lies inside the managed range. */
    bool contains(PhysFrame frame) const;

    /** First managed frame. */
    PhysFrame base() const { return first; }

    /**
     * Digest of the allocator position (free lists per order). Folded
     * into Defense/Kernel stateHash: two allocators with equal digests
     * hand out the same frames in the same order forever.
     */
    std::uint64_t stateHash() const;

  private:
    PhysFrame buddyOf(PhysFrame frame, unsigned order) const;
    void insertFree(PhysFrame frame, unsigned order);

    PhysFrame first;
    std::uint64_t count;
    std::uint64_t nFree = 0;
    std::vector<std::set<PhysFrame>> freeLists;  //!< per order
};

} // namespace pth

#endif // PTH_KERNEL_BUDDY_ALLOCATOR_HH
