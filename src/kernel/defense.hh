/**
 * @file
 * Software-only rowhammer defenses as frame-placement policies.
 *
 * Each defense decides which physical frame backs an allocation of a
 * given intent, implementing the isolation contract its paper
 * describes:
 *
 *  - CATT (Brasser et al.) partitions memory into a kernel zone and a
 *    user zone separated by guard rows: user-reachable rows are never
 *    adjacent to kernel rows.
 *  - RIP-RH (Bock et al.) segregates each user process into its own
 *    DRAM region; the kernel is not protected.
 *  - CTA (Wu et al.) additionally confines Level-1 page tables to the
 *    *top* of physical memory in rows screened to contain only true
 *    cells, so any flip lowers a PTE's pointer and can never redirect
 *    it into the L1PT region.
 *  - ZebRAM (Konoth et al.) uses only every second row for data and
 *    keeps odd rows as guards.
 *
 * Defense is one value type over the closed DefenseKind set: each
 * operation switches on the kind, and the compiler-generated copy
 * carries every pool, cursor and flag into a Machine fork.
 *
 * PThammer's claim, which the benches reproduce, is that placement
 * defenses do not help when the *processor* performs the access.
 */

#ifndef PTH_KERNEL_DEFENSE_HH
#define PTH_KERNEL_DEFENSE_HH

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>

#include "common/types.hh"
#include "dram/address_mapping.hh"
#include "dram/vulnerability_model.hh"
#include "kernel/buddy_allocator.hh"

namespace pth
{

/** What an allocation will hold; drives defense placement. */
enum class AllocIntent
{
    UserData,        //!< user-space anonymous/shared pages
    PageTableL1,     //!< Level-1 page-table pages (the attack target)
    PageTableUpper,  //!< PML4/PDPT/PD pages
    KernelData,      //!< other kernel objects (e.g. struct cred slabs)
};

/** Selectable defense policies. */
enum class DefenseKind { None, Catt, RipRh, Cta, ZebRam };

/** Human-readable defense name. */
std::string defenseKindName(DefenseKind kind);

/** The frame-placement policy of one DefenseKind. */
class Defense
{
  public:
    /**
     * Wire a policy to the machine's DRAM layout. The policy keeps its
     * own copies of the mapping and the weak-cell map: both are small,
     * stateless functions of the configuration, so a copied Defense is
     * complete with nothing to rewire.
     *
     * @param totalFrames Physical frames in the machine.
     */
    Defense(DefenseKind kind, const AddressMapping &mapping,
            const VulnerabilityModel &vulnerability,
            std::uint64_t totalFrames);

    /** Policy name for reports. */
    std::string name() const { return defenseKindName(kind); }

    /**
     * Allocate one frame.
     * @param intent What the frame will hold.
     * @param owner Owning process id (used by RIP-RH).
     * @return Frame, or kInvalidFrame when the zone is exhausted.
     */
    PhysFrame alloc(AllocIntent intent, std::uint64_t owner);

    /** Free a frame previously allocated with the same intent/owner. */
    void free(PhysFrame frame, AllocIntent intent, std::uint64_t owner);

    /**
     * Placement predicate, used by property tests: would this policy
     * ever place an allocation of this intent in this frame?
     */
    bool frameAllowed(AllocIntent intent, PhysFrame frame) const;

    /**
     * Approximate zone capacity (frames) for an intent; lets the
     * CATT-exhaustion counter-technique size its allocations.
     */
    std::uint64_t zoneFrames(AllocIntent intent) const;

    /**
     * Digest of the allocator state (pool free lists, cursors,
     * recycled frames, fallback flags). Folded into Kernel::stateHash
     * so equal machine fingerprints imply identical future frame
     * placement — an advanced allocation cursor was previously
     * invisible to snapshot audits.
     */
    std::uint64_t stateHash() const;

  private:
    /**
     * A cursor walking [lo, hi), up or down, over the frames whose row
     * passes rowAllowed(); freed frames are handed out again first.
     * CTA's L1PT zone descends from the top of memory, ZebRAM's single
     * zone ascends.
     */
    struct Cursor
    {
        PhysFrame lo = 0;
        PhysFrame hi = 0;
        PhysFrame next = 0;
        bool descending = false;
        std::set<PhysFrame> recycled;
    };

    /** Next frame of the cursor zone, or kInvalidFrame when empty. */
    PhysFrame cursorAlloc();

    /** Cursor-zone row test: only true cells (CTA's memory screen) or
     * an even row (ZebRAM; odd rows are guards). */
    bool rowAllowed(PhysFrame frame) const;

    /** RIP-RH: the owner's user partition, created on first use. */
    BuddyAllocator &partitionFor(std::uint64_t owner);

    DefenseKind kind;
    AddressMapping map;
    VulnerabilityModel vuln;
    std::uint64_t totalFrames;

    /** The buddy zone: all of memory (none), the kernel zone (CATT,
     * RIP-RH), or everything below the L1PT zone (CTA). */
    BuddyAllocator pool{0, 0};

    /** CATT and RIP-RH: kernel zone end and first user frame. */
    PhysFrame kernelEnd = 0;
    PhysFrame userStart = 0;

    /** CATT: the user zone, and whether the kernel has spilled into
     * it yet (warned once). */
    BuddyAllocator userPool{0, 0};
    bool warnedFallback = false;

    /** RIP-RH: one buddy zone per partition, keyed by owner modulo
     * the partition count, each followed by a guard row. */
    unsigned partitionCount = 0;
    std::uint64_t userFramesPerPartition = 0;
    std::uint64_t guardFrames = 0;
    std::unordered_map<unsigned, BuddyAllocator> partitions;

    /** CTA's L1PT zone (its lo is the zone start) or ZebRAM's. */
    Cursor cursor;
};

} // namespace pth

#endif // PTH_KERNEL_DEFENSE_HH
