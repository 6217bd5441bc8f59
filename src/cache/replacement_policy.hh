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
 * set-associative structure of 1 to 64 ways. A plain value: copies
 * (Machine snapshot/fork) carry every stamp, tree bit, age and the RNG
 * position, so a copy replays victim choices bit-identically.
 *
 * - Lru: true least-recently-used via per-way age stamps.
 * - TreePlru: tree pseudo-LRU, one word of node bits per set.
 *   Associativities that are not a power of two (e.g. 12-way LLC
 *   slices) use the next larger tree and re-draw when the tree points
 *   at a nonexistent way.
 * - Aging: clock-style aging with a re-reference counter per way. Hits
 *   recharge an entry to the maximum age; fills start low; victim
 *   selection picks (randomly) among ways at age 0, ageing the whole
 *   set when none qualifies. A freshly-touched entry therefore
 *   survives roughly touchAge ageing rounds of fills, pushing the
 *   reliable eviction-set size to ~3x the associativity — the TLB
 *   behaviour behind the paper's Figure 3 knee at 12 pages for 4-way
 *   TLBs. Ages are one-byte lanes of 64-bit words, eight ways a word,
 *   so victim selection compares, counts and ages a word at a time.
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
            tree[set] = (tree[set] & ~paths[way].mask) | paths[way].bits;
            break;
          case ReplacementKind::Aging:
            setAge(set, way, touchAge);
            break;
        }
    }

    /** Note a fill into (set, way). Only Aging tells it from a hit. */
    void insert(std::uint64_t set, unsigned way)
    {
        if (kind == ReplacementKind::Aging)
            setAge(set, way, insertAge);
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

    /** Lru: the last stamp handed out, and the stamp of one slot
     * (set * ways + way), for owners that digest them in their own
     * layout. */
    std::uint64_t lruTick() const { return tick; }
    std::uint64_t lruStamp(std::uint64_t slot) const { return stamps[slot]; }

  private:
    static constexpr std::uint8_t touchAge = 4;
    static constexpr std::uint8_t insertAge = 1;
    static constexpr double skipAgeProbability = 0.60;

    /** TreePlru: the node bits a touch of one way rewrites (mask) and
     * the values it writes there (bits), each pointing away from it. */
    struct TreePath
    {
        std::uint64_t mask = 0;
        std::uint64_t bits = 0;
    };

    void setAge(std::uint64_t set, unsigned way, std::uint8_t age)
    {
        std::uint64_t &word = ages[set * ageWords + way / 8];
        const unsigned shift = 8 * (way % 8);
        word = (word & ~(0xffull << shift)) |
               (static_cast<std::uint64_t>(age) << shift);
    }

    unsigned lruVictim(std::uint64_t set) const;
    unsigned treeVictim(std::uint64_t set);
    unsigned agingVictim(std::uint64_t set);
    int pickAged(std::uint64_t set, std::uint8_t age);
    unsigned drawBelow(unsigned count);

    ReplacementKind kind;
    unsigned ways;
    unsigned treeWays = 1;   //!< TreePlru: ways rounded up to a power of two
    unsigned levels = 0;     //!< TreePlru: log2(treeWays)
    unsigned ageWords = 0;   //!< Aging: words per set, ceil(ways / 8)
    std::uint64_t tick = 0;  //!< Lru: last stamp handed out
    std::vector<std::uint64_t> stamps;  //!< Lru: sets x ways age stamps
    std::vector<std::uint64_t> tree;    //!< TreePlru: bit n = node n, per set
    std::vector<TreePath> paths;        //!< TreePlru: per way
    std::vector<std::uint64_t> ages;    //!< Aging: sets x ageWords
    Rng rng;                            //!< Aging: victim draws
};

} // namespace pth

#endif // PTH_CACHE_REPLACEMENT_POLICY_HH
