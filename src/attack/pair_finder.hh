/**
 * @file
 * Double-sided pair selection (Section IV-D).
 *
 * Step 1: pick virtual addresses 2 * RowsSize * 512 bytes apart
 * (256 MiB with 256 KiB row stride); thanks to the buddy allocator's
 * consecutive page-table allocation their L1PTEs are very likely one
 * victim row apart in the same bank. Step 2: verify the same-bank
 * property through the row-buffer-conflict timing side channel.
 */

#ifndef PTH_ATTACK_PAIR_FINDER_HH
#define PTH_ATTACK_PAIR_FINDER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "attack/attack_config.hh"
#include "attack/eviction_selection.hh"
#include "attack/spray.hh"
#include "attack/timing.hh"
#include "attack/tlb_eviction.hh"
#include "common/types.hh"

namespace pth
{

class Machine;

/** Row-conflict probes majority-voted to accept a pair as same-bank
 * (Section IV-D). */
inline constexpr unsigned kBankProbeCount = 24;

/** A fully-provisioned double-sided hammer pair. */
struct HammerPair
{
    VirtAddr va1 = 0;
    VirtAddr va2 = 0;
    std::vector<VirtAddr> tlbSet1;   //!< TLB eviction set for va1
    std::vector<VirtAddr> tlbSet2;
    std::vector<VirtAddr> llcSet1;   //!< LLC eviction set for va1's L1PTE
    std::vector<VirtAddr> llcSet2;
    Cycles tlbSelectCycles = 0;      //!< ~1 us per the paper
    Cycles llcSelectCycles = 0;      //!< ~285 ms per the paper
    Cycles verifyCycles = 0;         //!< bank-conflict verification
};

/** The pair-finding pipeline. */
class PairFinder
{
  public:
    PairFinder(Machine &machine, const AttackConfig &config,
               SprayManager &sprayer, TlbEvictionTool &tlbTool,
               EvictionSetSelector &selector);

    /**
     * Produce the next timing-verified pair. Candidates failing the
     * bank-conflict test are discarded (their cost is still charged).
     */
    std::optional<HammerPair> next();

    /** Candidate pairs examined so far. */
    std::uint64_t candidatesTried() const { return tried; }

    /** Pairs that passed the timing verification. */
    std::uint64_t accepted() const { return acceptedCount; }

    /** The raw same-bank timing test, exposed for the IV-D bench. */
    bool verifySameBank(const HammerPair &pair);

    /** Build (without verifying) the pair for given addresses. */
    std::optional<HammerPair> provision(VirtAddr va1, VirtAddr va2);

    /** The virtual-address stride between pair members. */
    std::uint64_t pairStride() const;

  private:
    Machine &m;
    SprayManager &sprayer;
    TlbEvictionTool &tlbTool;
    EvictionSetSelector &selector;
    LatencyProbe probe;
    std::uint64_t tried = 0;
    std::uint64_t acceptedCount = 0;
    std::uint64_t salt = 0;
};

} // namespace pth

#endif // PTH_ATTACK_PAIR_FINDER_HH
