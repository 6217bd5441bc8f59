#include "cache/replacement_policy.hh"

#include <algorithm>

#include "common/bitops.hh"

namespace pth
{

ReplacementPolicy::ReplacementPolicy(ReplacementKind kind_,
                                     std::uint64_t sets, unsigned ways_,
                                     std::uint64_t seed)
    : kind(kind_), ways(ways_), rng(seed)
{
    switch (kind) {
      case ReplacementKind::Lru:
        stamps.assign(sets * ways, 0);
        break;
      case ReplacementKind::TreePlru:
        while (treeWays < ways)
            treeWays <<= 1;
        levels = log2i(treeWays);
        bits.assign(sets * (treeWays - 1), 0);
        break;
      case ReplacementKind::Aging:
        ages.assign(sets * ways, 0);
        break;
    }
}

std::uint64_t
ReplacementPolicy::stateHash() const
{
    std::uint64_t h = 0;
    switch (kind) {
      case ReplacementKind::Lru:
        h = hashCombine(0x12c0, ways, tick);
        for (std::uint64_t stamp : stamps)
            h = hashCombine(h, stamp);
        break;
      case ReplacementKind::TreePlru:
        h = hashCombine(0x92e9, ways, treeWays);
        for (std::uint8_t bit : bits)
            h = hashCombine(h, bit);
        break;
      case ReplacementKind::Aging:
        h = hashCombine(0xa917, ways, rng.stateHash());
        for (std::uint8_t age : ages)
            h = hashCombine(h, age);
        break;
    }
    return h;
}

void
ReplacementPolicy::updatePath(std::uint64_t set, unsigned way)
{
    // Walk from the root; at each node, point the bit *away* from the
    // touched way.
    std::uint8_t *tree = &bits[set * (treeWays - 1)];
    unsigned node = 0;
    for (unsigned level = 0; level < levels; ++level) {
        unsigned shift = levels - 1 - level;
        unsigned dir = (way >> shift) & 1;
        tree[node] = static_cast<std::uint8_t>(dir ^ 1);
        node = 2 * node + 1 + dir;
    }
}

unsigned
ReplacementPolicy::lruVictim(std::uint64_t set) const
{
    unsigned best = 0;
    std::uint64_t bestStamp = ~0ull;
    for (unsigned w = 0; w < ways; ++w) {
        std::uint64_t s = stamps[set * ways + w];
        if (s < bestStamp) {
            bestStamp = s;
            best = w;
        }
    }
    return best;
}

unsigned
ReplacementPolicy::treeVictim(std::uint64_t set)
{
    std::uint8_t *tree = &bits[set * (treeWays - 1)];
    for (unsigned attempt = 0; attempt < 2 * treeWays; ++attempt) {
        unsigned node = 0;
        unsigned way = 0;
        for (unsigned level = 0; level < levels; ++level) {
            unsigned dir = tree[node];
            way = (way << 1) | dir;
            node = 2 * node + 1 + dir;
        }
        if (way < ways)
            return way;
        // The tree pointed into the padded range (non-power-of-two
        // associativity); steer away and retry.
        updatePath(set, ways - 1);
    }
    return ways - 1;
}

unsigned
ReplacementPolicy::agingVictim(std::uint64_t set)
{
    std::uint8_t *age = &ages[set * ways];
    auto pickAmong = [&](std::uint8_t wanted) -> int {
        unsigned count = 0;
        for (unsigned w = 0; w < ways; ++w)
            if (age[w] == wanted)
                ++count;
        if (!count)
            return -1;
        unsigned pick = static_cast<unsigned>(rng.below(count));
        for (unsigned w = 0; w < ways; ++w) {
            if (age[w] == wanted) {
                if (pick == 0)
                    return static_cast<int>(w);
                --pick;
            }
        }
        return -1;
    };

    for (unsigned round = 0; round < 2u * touchAge + 2; ++round) {
        int zero = pickAmong(0);
        if (zero >= 0)
            return static_cast<unsigned>(zero);
        // No way is stale. Sometimes the hardware heuristic punts and
        // replaces a young fill instead of ageing the whole set; this
        // keeps referenced entries alive past exact multiples of the
        // associativity.
        if (rng.chance(skipAgeProbability)) {
            std::uint8_t minAge = 255;
            for (unsigned w = 0; w < ways; ++w)
                minAge = std::min(minAge, age[w]);
            int young = pickAmong(minAge);
            if (young >= 0)
                return static_cast<unsigned>(young);
        }
        for (unsigned w = 0; w < ways; ++w)
            if (age[w] > 0)
                --age[w];
    }
    return static_cast<unsigned>(rng.below(ways));
}

} // namespace pth
