/**
 * @file
 * Sparse simulated physical memory.
 *
 * Pages are materialized on first write (or flip); unmaterialized pages
 * read as zero. This lets experiments run at the paper's full 8 GiB
 * scale while host memory stays proportional to the touched footprint.
 */

#ifndef PTH_MEM_PHYSICAL_MEMORY_HH
#define PTH_MEM_PHYSICAL_MEMORY_HH

#include <cstdint>
#include <unordered_map>

#include "common/types.hh"
#include "mem/phys_page.hh"

namespace pth
{

/** Byte-addressable sparse physical memory of a fixed size. */
class PhysicalMemory
{
  public:
    /** @param sizeBytes Total simulated physical memory size. */
    explicit PhysicalMemory(std::uint64_t sizeBytes);

    /** Total size in bytes. */
    std::uint64_t size() const { return bytes; }

    /** Total size in 4 KiB frames. */
    std::uint64_t frames() const { return bytes >> kPageShift; }

    /** Fault (panic) unless pa lies inside memory. */
    void checkRange(PhysAddr pa) const;

    /** Read the aligned 64-bit word at a physical address. */
    std::uint64_t read64(PhysAddr pa) const;

    /** Write the aligned 64-bit word at a physical address. */
    void write64(PhysAddr pa, std::uint64_t value);

    /** Read one byte. */
    std::uint8_t read8(PhysAddr pa) const;

    /** Write one byte. */
    void write8(PhysAddr pa, std::uint8_t value);

    /** Fill an entire frame with a repeating 64-bit pattern. */
    void fillFramePattern(PhysFrame frame, std::uint64_t value);

    /**
     * Flip one bit in DRAM (the fault-injection entry point used by the
     * rowhammer disturbance model).
     *
     * @param pa Physical byte address.
     * @param bitPos Bit within the byte (0-7).
     */
    void flipBit(PhysAddr pa, unsigned bitPos);

    /** Number of host-materialized pages (memory-audit hook). */
    std::uint64_t materializedPages() const { return pages.size(); }

    /** True when the frame has been materialized. */
    bool isMaterialized(PhysFrame frame) const;

    /**
     * Order-independent hash over every materialized page's content
     * (snapshot audits; see Machine::stateFingerprint). Two memories
     * whose reads can never differ hash equally, regardless of page
     * representation or map iteration order.
     */
    std::uint64_t contentHash() const;

  private:
    PhysPage &pageFor(PhysFrame frame);
    const PhysPage *pageIfPresent(PhysFrame frame) const;

    std::uint64_t bytes;
    std::unordered_map<PhysFrame, PhysPage> pages;
};

} // namespace pth

#endif // PTH_MEM_PHYSICAL_MEMORY_HH
