/**
 * @file
 * Bit-flip detection (Section IV-F): after each hammering attempt the
 * attacker re-reads its sprayed address space and compares against the
 * known markers; a flipped L1PTE silently redirects a page, so its
 * content no longer matches.
 *
 * The scan's cycle cost is charged for the full sprayed range (the
 * paper's ~4.4 s "check time"); the simulator evaluates the content
 * comparison only where DRAM actually injected flips, which is
 * observationally equivalent because untouched memory cannot miscompare.
 */

#ifndef PTH_ATTACK_FLIP_CHECKER_HH
#define PTH_ATTACK_FLIP_CHECKER_HH

#include <cstdint>
#include <vector>

#include "attack/attack_config.hh"
#include "attack/spray.hh"
#include "common/types.hh"

namespace pth
{

class Machine;

/** Cycles charged per sprayed page for the bit-flip content scan. */
inline constexpr Cycles kCheckCyclesPerPage = 42;

/** One detected corruption. */
struct FlipFinding
{
    VirtAddr va = 0;            //!< sprayed page whose content changed
    std::uint64_t region = 0;   //!< spray region of that page
};

/** The checker. */
class FlipChecker
{
  public:
    FlipChecker(Machine &machine, const AttackConfig &,
                SprayManager &sprayer);

    /**
     * Scan the sprayed space. Charges the full scan cost, drains the
     * DRAM flip log, and returns the attacker-visible corruptions.
     */
    std::vector<FlipFinding> check();

  private:
    Machine &m;
    SprayManager &sprayer;
};

} // namespace pth

#endif // PTH_ATTACK_FLIP_CHECKER_HH
