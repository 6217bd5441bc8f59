/**
 * @file
 * The set-associative way array under Cache and Tlb: contiguous per-set
 * keys with valid bits, a per-set mask of the valid ways, and the
 * replacement policy that picks victims among them. Cache keys a slot
 * by line address, Tlb by (vpn, huge).
 */

#ifndef PTH_CACHE_SET_ASSOC_HH
#define PTH_CACHE_SET_ASSOC_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/replacement_policy.hh"

namespace pth
{

/** sets x ways slots, slot = set * ways + way, for 1 to 64 ways. */
class SetAssocArray
{
  public:
    /** Slot index meaning "not present". */
    static constexpr std::uint64_t npos = ~0ull;

    /** Outcome of place() and fill(). */
    struct Placement
    {
        std::uint64_t slot;                    //!< slot now holding the key
        std::optional<std::uint64_t> evicted;  //!< key the policy displaced
    };

    /** @param seed Replacement seed (see ReplacementPolicy). */
    SetAssocArray(std::uint64_t sets, unsigned ways, ReplacementKind kind,
                  std::uint64_t seed);

    /**
     * Find key in set and note the hit with the policy.
     * @return Its slot, or npos when absent.
     */
    std::uint64_t lookup(std::uint64_t set, std::uint64_t key)
    {
        unsigned w = find(set, key);
        if (w == ways)
            return npos;
        policy.touch(set, w);
        return set * ways + w;
    }

    /** Presence check without touching replacement state. */
    bool contains(std::uint64_t set, std::uint64_t key) const
    {
        return find(set, key) != ways;
    }

    /**
     * Make key resident in set: refresh it when already present, else
     * fill() it.
     * @param key Must leave bit 63 clear (the valid bit).
     */
    Placement place(std::uint64_t set, std::uint64_t key)
    {
        unsigned w = find(set, key);
        if (w == ways)
            return fill(set, key);
        policy.touch(set, w);
        return {set * ways + w, std::nullopt};
    }

    /**
     * Make a key that has just missed in set resident: take the lowest
     * free way, else replace the policy's victim. Skips place()'s
     * presence scan, so the key must be absent from the set. That is
     * not checked at run time (a check would cost the scan this
     * saves); a duplicate would move the slots every digest folds, so
     * the digest pins and fingerprints hold it.
     * @param key Must leave bit 63 clear (the valid bit).
     */
    Placement fill(std::uint64_t set, std::uint64_t key);

    /**
     * Clear the valid bit of key's slot; the stale key stays, and so
     * still reaches the owners' digests.
     * @return true when key was present.
     */
    bool invalidate(std::uint64_t set, std::uint64_t key);

    /** Clear every valid bit. */
    void flushAll();

    /** Number of valid slots. */
    std::uint64_t validCount() const;

    /** Slot count, for owners that digest every slot in index order. */
    std::uint64_t size() const { return slots.size(); }

    /** Whether a slot holds a live key. */
    bool valid(std::uint64_t slot) const { return slots[slot] & kValid; }

    /** The key a slot holds or, once invalidated, last held. */
    std::uint64_t key(std::uint64_t slot) const
    {
        return slots[slot] & ~kValid;
    }

    /** Digest of the replacement state (ReplacementPolicy::stateHash). */
    std::uint64_t policyHash() const { return policy.stateHash(); }

    /** The replacement state itself, read-only. */
    const ReplacementPolicy &replacement() const { return policy; }

  private:
    static constexpr std::uint64_t kValid = 1ull << 63;

    /** Way holding key in set, or ways when absent. Every memory
     * reference and translation runs this scan at each level it
     * probes, so it and lookup() stay inline. */
    unsigned find(std::uint64_t set, std::uint64_t key) const
    {
        const std::uint64_t *row = &slots[set * ways];
        unsigned w = 0;
        while (w < ways && row[w] != (key | kValid))
            ++w;
        return w;
    }

    unsigned ways;
    std::vector<std::uint64_t> slots;  //!< key | kValid while resident
    std::vector<std::uint64_t> validWays;  //!< per set, bit w = way w valid
    ReplacementPolicy policy;
};

} // namespace pth

#endif // PTH_CACHE_SET_ASSOC_HH
