/**
 * @file
 * Set-associative replacement policies.
 *
 * True LRU, tree pseudo-LRU and clock-style aging are provided. The
 * caches use LRU (L1D) and tree-PLRU (L2/LLC); the TLBs use aging: the
 * paper observes that a TLB eviction set equal to the associativity
 * does not reliably evict ("the eviction policy on TLB is not true
 * LRU"), and aging reproduces exactly that behaviour, which drives the
 * Figure 3 minimal-set-size result.
 */

#ifndef PTH_CACHE_REPLACEMENT_POLICY_HH
#define PTH_CACHE_REPLACEMENT_POLICY_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"

namespace pth
{

/** Replacement policy kinds selectable from configuration. */
enum class ReplacementKind { Lru, TreePlru, Aging };

/**
 * Per-structure replacement state covering all sets of one
 * set-associative structure. A plain value: copies (Machine
 * snapshot/fork) carry every stamp, tree bit, age and the RNG
 * position, so a copy replays victim choices bit-identically.
 *
 * - Lru: true least-recently-used via per-way age stamps.
 * - TreePlru: tree pseudo-LRU. Associativities that are not a power of
 *   two (e.g. 12-way LLC slices) use the next larger tree and re-draw
 *   when the tree points at a nonexistent way.
 * - Aging: clock-style aging with a re-reference counter per way. Hits
 *   recharge an entry to the maximum age; fills start low; victim
 *   selection picks (randomly) among ways at age 0, ageing the whole
 *   set when none qualifies. A freshly-touched entry therefore
 *   survives roughly touchAge ageing rounds of fills, pushing the
 *   reliable eviction-set size to ~3x the associativity — the TLB
 *   behaviour behind the paper's Figure 3 knee at 12 pages for 4-way
 *   TLBs.
 */
class ReplacementPolicy
{
  public:
    /** @param seed Seeds the victim draws of Aging; ignored otherwise. */
    ReplacementPolicy(ReplacementKind kind, std::uint64_t sets,
                      unsigned ways, std::uint64_t seed);

    // touch, insert and victim are inline: every cache and TLB hit or
    // fill dispatches through them.

    /** Note a hit on (set, way). */
    void touch(std::uint64_t set, unsigned way)
    {
        switch (kind) {
          case ReplacementKind::Lru:
            stamps[set * ways + way] = ++tick;
            break;
          case ReplacementKind::TreePlru:
            updatePath(set, way);
            break;
          case ReplacementKind::Aging:
            ages[set * ways + way] = touchAge;
            break;
        }
    }

    /** Note a fill into (set, way). Only Aging tells it from a hit. */
    void insert(std::uint64_t set, unsigned way)
    {
        if (kind == ReplacementKind::Aging)
            ages[set * ways + way] = insertAge;
        else
            touch(set, way);
    }

    /** Choose the way to evict from the given (full) set. */
    unsigned victim(std::uint64_t set)
    {
        switch (kind) {
          case ReplacementKind::Lru:
            return lruVictim(set);
          case ReplacementKind::TreePlru:
            return treeVictim(set);
          case ReplacementKind::Aging:
            return agingVictim(set);
        }
        return 0;
    }

    /**
     * Digest of the replacement metadata (age stamps, tree bits, ages,
     * RNG position). Folded into Cache/Tlb stateHash so two structures
     * with equal fingerprints also agree on every future victim choice
     * — without this, snapshot audits could pass on states that replay
     * differently.
     */
    std::uint64_t stateHash() const;

  private:
    static constexpr std::uint8_t touchAge = 4;
    static constexpr std::uint8_t insertAge = 1;
    static constexpr double skipAgeProbability = 0.60;

    void updatePath(std::uint64_t set, unsigned way);
    unsigned lruVictim(std::uint64_t set) const;
    unsigned treeVictim(std::uint64_t set);
    unsigned agingVictim(std::uint64_t set);

    ReplacementKind kind;
    unsigned ways;
    unsigned treeWays = 1;   //!< TreePlru: ways rounded up to a power of two
    unsigned levels = 0;     //!< TreePlru: log2(treeWays)
    std::uint64_t tick = 0;  //!< Lru: last stamp handed out
    std::vector<std::uint64_t> stamps;  //!< Lru: sets x ways age stamps
    std::vector<std::uint8_t> bits;     //!< TreePlru: sets x (treeWays-1) nodes
    std::vector<std::uint8_t> ages;     //!< Aging: sets x ways
    Rng rng;                            //!< Aging: victim draws
};

} // namespace pth

#endif // PTH_CACHE_REPLACEMENT_POLICY_HH
