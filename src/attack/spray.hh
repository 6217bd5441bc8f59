/**
 * @file
 * Level-1 page-table spraying (Sections III-B and IV-F).
 *
 * The attacker mmaps a handful of shared user frames over an enormous
 * virtual range, alluring the kernel into building gigabytes of L1PT
 * pages. Each sprayed virtual page carries a frame-specific marker so
 * a flipped L1PTE — which silently redirects the page — is detected by
 * a content comparison.
 */

#ifndef PTH_ATTACK_SPRAY_HH
#define PTH_ATTACK_SPRAY_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "attack/attack_config.hh"
#include "common/types.hh"

namespace pth
{

class Machine;

/** Distinct user frames the spray maps over and over. */
inline constexpr unsigned kUserSharedFrames = 4;

/** The spraying tool. */
class SprayManager
{
  public:
    SprayManager(Machine &machine, const AttackConfig &config);

    /**
     * Perform the spray: create the shared user frames and map them
     * until sprayBytes worth of L1PT pages exist.
     * @return Simulated cycles spent.
     */
    Cycles spray();

    /** Number of L1PT pages the spray created. */
    std::uint64_t ptPages() const { return regions; }

    /** Number of sprayed virtual pages (each checked for flips). */
    std::uint64_t sprayedPages() const { return regions * kPtesPerPage; }

    /** Base virtual address of sprayed region i (one per L1PT page). */
    VirtAddr regionBase(std::uint64_t i) const;

    /** Expected marker readable through any page of region i. */
    std::uint64_t expectedMarker(std::uint64_t region) const;

    /** Region index covering a sprayed va. */
    std::uint64_t regionOf(VirtAddr va) const;

    /**
     * Reverse lookup: which sprayed region's L1PT lives in this frame?
     * (Populated after the spray from the attacker's own address
     * space; used by the flip checker and the exploit.)
     * @return region index or ~0ull.
     */
    std::uint64_t regionOfPtFrame(PhysFrame frame) const;

    /** A random sprayed, page-aligned, non-superpage-aligned va. */
    VirtAddr randomTarget(std::uint64_t salt) const;

  private:
    Machine &m;
    const AttackConfig &cfg;
    std::uint64_t regions = 0;
    std::vector<PhysFrame> userFrames;
    std::vector<std::uint64_t> markers;  //!< per user frame
    std::unordered_map<PhysFrame, std::uint64_t> ptFrameToRegion;
};

} // namespace pth

#endif // PTH_ATTACK_SPRAY_HH
