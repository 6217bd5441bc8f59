/**
 * @file
 * Multi-hart implicit hammering policy: which pairs a batch hammers,
 * how many harts the noisy-neighbor victims keep, and the attempt
 * loop. The hammering itself is ImplicitHammer's batch engine: one
 * pair per aggressor hart, interleaved detailed warmup, then per-bank
 * analytic bulk with the harts' activation rates stacked.
 *
 * Aggressor pairs are picked bank-synchronized (the most populated
 * bank first): many aggressor rows in one bank are what overwhelm a
 * TRR-style tracker.
 */

#ifndef PTH_ATTACK_MULTI_HAMMER_HH
#define PTH_ATTACK_MULTI_HAMMER_HH

#include <cstdint>
#include <vector>

#include "attack/attack_config.hh"
#include "attack/implicit_hammer.hh"
#include "attack/pair_finder.hh"
#include "cpu/interleaver.hh"

namespace pth
{

class Machine;

/** The host-time benchmark's replica of the attempt loop names this
 * type, and a benchmark change is what retires that replica. */
using MultiHartHammerResult = HammerRunResult;

/** What the multi-hart attempt loop produced. */
struct MultiHartAttempts
{
    unsigned attempts = 0;      //!< pairs hammered over all batches
    std::uint64_t flips = 0;
    Cycles hammerCycles = 0;    //!< summed over batches
    HammerRunResult lastBatch;  //!< zero when no batch ran
};

/** The multi-hart hammer. Requires a prepared PThammerAttack: hart 0
 * must already run the attacker process (prepare() installs it). */
class MultiHartHammer
{
  public:
    MultiHartHammer(Machine &machine, const AttackConfig &config,
                    InterleaveMode mode, std::uint64_t interleaveSeed);

    /**
     * Draw candidate pairs from the finder and return up to
     * maxPairs of them, bank-synchronized: pairs whose PTE rows share
     * the most-populated bank first, so the aggressor rows concentrate
     * where their activation rates stack.
     */
    std::vector<HammerPair> selectPairs(PairFinder &finder,
                                        unsigned maxPairs);

    /**
     * Hammer pairs[i] from aggressor hart i (one pair per hart,
     * clamped to the machine's hart count minus the victim harts)
     * while the configured victim harts run interleaved traffic.
     */
    HammerRunResult run(const std::vector<HammerPair> &pairs,
                        std::uint64_t iterationsPerHart);

    /**
     * The attempt loop: hammer one bank-synchronized batch per
     * attempt, a pair per aggressor hart, until a flip lands or the
     * attempt or simulated-time budget runs out.
     */
    MultiHartAttempts runAttempts(PairFinder &finder);

  private:
    Machine &m;
    const AttackConfig &cfg;
    ImplicitHammer engine;
    unsigned victims;  //!< victim harts, leaving at least one aggressor
};

} // namespace pth

#endif // PTH_ATTACK_MULTI_HAMMER_HH
