/**
 * @file
 * Explicit clflush-based double-sided hammering — the published
 * rowhammer-test-style tool the paper uses in Section IV-E to find the
 * maximum per-iteration cost that still flips bits (Figure 5). NOP
 * padding stretches each iteration, exactly as the paper does.
 */

#ifndef PTH_ATTACK_EXPLICIT_HAMMER_HH
#define PTH_ATTACK_EXPLICIT_HAMMER_HH

#include <cstdint>
#include <optional>

#include "attack/attack_config.hh"
#include "common/types.hh"

namespace pth
{

class Machine;

/** Outcome of a padded explicit hammering campaign. */
struct ExplicitHammerResult
{
    bool flipped = false;
    double secondsToFirstFlip = 0;     //!< simulated seconds
    double meanCyclesPerIteration = 0;
    std::uint64_t pairsHammered = 0;
};

/** The baseline tool. */
class ExplicitHammer
{
  public:
    ExplicitHammer(Machine &machine, const AttackConfig &config);

    /**
     * Allocate the tool's buffer (call once).
     * @param bytes Buffer size (default 64 MiB).
     */
    void setup(std::uint64_t bytes = 64ull * 1024 * 1024);

    /**
     * Hammer random double-sided pairs with nopPadding NOPs per
     * iteration until a bit flips or the simulated budget expires.
     */
    ExplicitHammerResult run(unsigned nopPadding, double budgetSeconds);

    /** Detailed cost of one iteration at the given padding. */
    double measureIterationCycles(unsigned nopPadding);

    /**
     * Single-sided variant (Seaborn et al., Section II-A): hammer one
     * aggressor per victim side only. Needs roughly twice the per-row
     * activation rate to flip the same cells, so it stops flipping at
     * about half the double-sided NOP budget — a property test pins
     * this ordering.
     */
    ExplicitHammerResult runSingleSided(unsigned nopPadding,
                                        double budgetSeconds);

  private:
    /** A double-sided pair of buffer addresses: same bank, va2's row
     * two after va1's. */
    struct BufferPair
    {
        VirtAddr va1 = 0;
        VirtAddr va2 = 0;
        unsigned bank = 0;
        std::uint64_t row1 = 0;
    };

    /** Pick a double-sided pair, as the tool does with physical-address
     * hints. */
    std::optional<BufferPair> pickPair(std::uint64_t salt) const;

    /** The loop behind run() and runSingleSided(). */
    ExplicitHammerResult hammer(unsigned nopPadding, double budgetSeconds,
                                bool singleSided);

    /** One clflush + access + NOP iteration. */
    Cycles iteration(VirtAddr a1, VirtAddr a2, unsigned nopPadding);

    Machine &m;
    const AttackConfig &cfg;
    std::uint64_t bufferBytes = 0;  //!< mapped at kScratchBase
};

} // namespace pth

#endif // PTH_ATTACK_EXPLICIT_HAMMER_HH
