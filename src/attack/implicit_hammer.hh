/**
 * @file
 * The implicit double-sided hammer (Sections III-B, III-C and IV-E),
 * the one engine behind single- and multi-hart implicit hammering.
 *
 * One iteration evicts both targets' TLB entries and both L1PTE lines
 * from the LLC, then touches the two targets: each touch walks only
 * the Level-1 step (PDE cache hit) and fetches its L1PTE from DRAM,
 * activating the two aggressor rows around the victim L1PT row.
 *
 * A run hammers a batch, pairs[i] from hart i, while optional victim
 * harts run co-tenant traffic; a single-pair run is the batch of one
 * on hart 0. A detailed warmup, interleaved over the harts, measures
 * each hart's iteration cost and DRAM-fetch rate under shared
 * L2/LLC/DRAM contention; the remaining iterations are applied to the
 * DRAM disturbance model analytically per bank (refresh-window
 * accurate), with the harts' activation rates stacked.
 */

#ifndef PTH_ATTACK_IMPLICIT_HAMMER_HH
#define PTH_ATTACK_IMPLICIT_HAMMER_HH

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "attack/attack_config.hh"
#include "attack/pair_finder.hh"
#include "common/types.hh"
#include "cpu/interleaver.hh"

namespace pth
{

class Machine;

/** Pages in each victim hart's private working set. */
inline constexpr unsigned kVictimTrafficPages = 64;

/** Victim loads issued per interleaver slot. */
inline constexpr unsigned kVictimAccessesPerSlot = 8;

/** What one hammering batch produced. */
struct HammerRunResult
{
    unsigned aggressors = 0;   //!< harts that hammered a pair
    unsigned victims = 0;      //!< harts that ran co-tenant traffic
    Cycles totalCycles = 0;

    /** Modelled parallel cost of one round (every aggressor hart
     * completing one iteration): max over harts of the measured mean
     * iteration cost. A one-pair batch's mean iteration cost. */
    double meanRoundCycles = 0;

    double dramFetchRate = 0;  //!< fraction of warmup walks reaching DRAM

    /** Aggressor-row activations per refresh window summed over all
     * harts — the stacked rate the banks see. */
    double stackedActsPerWindow = 0;

    std::uint64_t flips = 0;   //!< bit flips injected during the run
    double victimMeanLatency = 0;  //!< cycles, under attack pressure
};

/** Where a pair's two L1PTEs sit in DRAM. */
struct AggressorRows
{
    unsigned bank = 0;
    std::uint64_t row1 = 0;
    std::uint64_t row2 = 0;
};

/** The hammer. */
class ImplicitHammer
{
  public:
    /** @param mode, interleaveSeed Schedule of a batch's detailed
     *        phase; a batch on one hart runs the same either way. */
    ImplicitHammer(Machine &machine, const AttackConfig &config,
                   InterleaveMode mode = InterleaveMode::RoundRobin,
                   std::uint64_t interleaveSeed = 0);

    /** One fully-detailed double-sided iteration; returns its cost.
     * Reuses one stream buffer, so a call allocates nothing once it
     * has grown.
     * @param hart Hart the iteration executes on (its CPU/TLB/L1);
     *        the default is hart 0, the single-hart behaviour. */
    Cycles iteration(const HammerPair &pair, unsigned &dramFetches,
                     unsigned hart = 0);

    /** Hammer one pair from hart 0: the batch of one, no victims. */
    HammerRunResult run(const HammerPair &pair, std::uint64_t iterations);

    /**
     * Hammer pairs[i] from hart i for iterationsPerHart iterations
     * (detailed warmup + analytic bulk) while the next `victims` harts
     * run co-tenant processes. Harts 1.. join hart 0's process.
     */
    HammerRunResult runBatch(std::span<const HammerPair> pairs,
                             unsigned victims,
                             std::uint64_t iterationsPerHart);

    /**
     * The bank and rows of the pair's two L1PTEs, read from hart 0's
     * page tables and the DRAM mapping; nullopt when an L1PTE is
     * unmapped or the two straddle banks.
     */
    std::optional<AggressorRows> aggressorRows(
        const HammerPair &pair) const;

    /**
     * Measure per-iteration timings only (Figure 6): rounds detailed
     * iterations with no extrapolation.
     */
    std::vector<Cycles> measureRounds(const HammerPair &pair,
                                      unsigned rounds);

  private:
    Machine &m;
    const AttackConfig &cfg;
    InterleaveMode mode;
    std::uint64_t seed;
    std::vector<VirtAddr> stream;  //!< iteration()'s eviction loads
};

} // namespace pth

#endif // PTH_ATTACK_IMPLICIT_HAMMER_HH
