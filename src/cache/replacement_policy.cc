#include "cache/replacement_policy.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace pth
{

namespace
{

// Aging's age rows: one byte lane per way, eight lanes a word.
constexpr std::uint64_t kLaneOnes = 0x0101010101010101ull;
constexpr std::uint64_t kLaneHighs = 0x8080808080808080ull;

// Lanes past the last way. No way's age (0..touchAge) equals it, and
// every lane stays below 0x80, so the lane arithmetic below never
// borrows or carries across lanes.
constexpr std::uint64_t kPadAge = 0x7f;

/** 0x80 in each lane of word that holds age, 0 elsewhere. */
std::uint64_t
lanesEqual(std::uint64_t word, std::uint8_t age)
{
    return (kLaneHighs - (word ^ (kLaneOnes * age))) & kLaneHighs;
}

/** Number of lanes marked 0x80 (multiply and shift: the build's
 * baseline x86-64 has no popcount instruction). */
unsigned
laneCount(std::uint64_t marks)
{
    return static_cast<unsigned>(((marks >> 7) * kLaneOnes) >> 56);
}

/** Lane of the k-th (from 0) lane marked 0x80; k < laneCount(marks). */
unsigned
kthLane(std::uint64_t marks, unsigned k)
{
    // Lane i of prefix counts the marked lanes 0..i. The k-th marked
    // lane is the first whose count exceeds k, so its index is the
    // number of lanes whose count does not.
    const std::uint64_t prefix = (marks >> 7) * kLaneOnes;
    const std::uint64_t above =
        ((prefix | kLaneHighs) - kLaneOnes * (k + 1)) & kLaneHighs;
    return 8 - laneCount(above);
}

} // namespace

ReplacementPolicy::ReplacementPolicy(ReplacementKind kind_,
                                     std::uint64_t sets, unsigned ways_,
                                     std::uint64_t seed)
    : kind(kind_), ways(ways_), rng(seed)
{
    pth_assert(ways >= 1 && ways <= 64,
               "replacement needs 1 to 64 ways, not %u", ways);
    switch (kind) {
      case ReplacementKind::Lru:
        stamps.assign(sets * ways, 0);
        break;
      case ReplacementKind::TreePlru:
        while (treeWays < ways)
            treeWays <<= 1;
        levels = log2i(treeWays);
        tree.assign(sets, 0);
        paths.resize(ways);
        for (unsigned way = 0; way < ways; ++way) {
            // Walk from the root; at each node, point the bit *away*
            // from the way.
            unsigned node = 0;
            for (unsigned level = 0; level < levels; ++level) {
                unsigned dir = (way >> (levels - 1 - level)) & 1;
                paths[way].mask |= 1ull << node;
                paths[way].bits |= static_cast<std::uint64_t>(dir ^ 1)
                                   << node;
                node = 2 * node + 1 + dir;
            }
        }
        break;
      case ReplacementKind::Aging: {
        ageWords = (ways + 7) / 8;
        std::vector<std::uint64_t> row(ageWords, 0);
        for (unsigned lane = ways; lane < 8 * ageWords; ++lane)
            row[lane / 8] |= kPadAge << (8 * (lane % 8));
        ages.reserve(sets * ageWords);
        for (std::uint64_t s = 0; s < sets; ++s)
            ages.insert(ages.end(), row.begin(), row.end());
        break;
      }
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
        for (std::uint64_t nodes : tree)
            for (unsigned node = 0; node + 1 < treeWays; ++node)
                h = hashCombine(h, (nodes >> node) & 1);
        break;
      case ReplacementKind::Aging:
        h = hashCombine(0xa917, ways, rng.stateHash());
        for (std::uint64_t row = 0; row < ages.size(); row += ageWords)
            for (unsigned way = 0; way < ways; ++way)
                h = hashCombine(
                    h, (ages[row + way / 8] >> (8 * (way % 8))) & 0xff);
        break;
    }
    return h;
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
    std::uint64_t &nodes = tree[set];
    for (unsigned attempt = 0; attempt < 2 * treeWays; ++attempt) {
        unsigned node = 0;
        unsigned way = 0;
        for (unsigned level = 0; level < levels; ++level) {
            unsigned dir = static_cast<unsigned>(nodes >> node) & 1;
            way = (way << 1) | dir;
            node = 2 * node + 1 + dir;
        }
        if (way < ways)
            return way;
        // The tree pointed into the padded range (non-power-of-two
        // associativity); steer away and retry.
        nodes = (nodes & ~paths[ways - 1].mask) | paths[ways - 1].bits;
    }
    return ways - 1;
}

unsigned
ReplacementPolicy::drawBelow(unsigned count)
{
    // rng.below(count) exactly, next() % count, but by a constant
    // divisor (a multiply) for every count a set of up to eight ways
    // yields, instead of a 64-bit hardware divide on every victim.
    const std::uint64_t x = rng.next();
    switch (count) {
      case 1:
        return 0;
      case 2:
        return static_cast<unsigned>(x % 2);
      case 3:
        return static_cast<unsigned>(x % 3);
      case 4:
        return static_cast<unsigned>(x % 4);
      case 5:
        return static_cast<unsigned>(x % 5);
      case 6:
        return static_cast<unsigned>(x % 6);
      case 7:
        return static_cast<unsigned>(x % 7);
      case 8:
        return static_cast<unsigned>(x % 8);
    }
    return static_cast<unsigned>(x % count);
}

int
ReplacementPolicy::pickAged(std::uint64_t set, std::uint8_t age)
{
    // Uniformly among the ways holding age, in way order: the draw
    // rng.below(count) of a scalar scan, then the pick-th such way.
    const std::uint64_t *row = &ages[set * ageWords];
    unsigned count = 0;
    for (unsigned i = 0; i < ageWords; ++i)
        count += laneCount(lanesEqual(row[i], age));
    if (!count)
        return -1;
    unsigned pick = drawBelow(count);
    for (unsigned i = 0;; ++i) {
        const std::uint64_t marks = lanesEqual(row[i], age);
        const unsigned n = laneCount(marks);
        if (pick < n)
            return static_cast<int>(8 * i + kthLane(marks, pick));
        pick -= n;
    }
}

unsigned
ReplacementPolicy::agingVictim(std::uint64_t set)
{
    std::uint64_t *row = &ages[set * ageWords];
    for (unsigned round = 0; round < 2u * touchAge + 2; ++round) {
        int zero = pickAged(set, 0);
        if (zero >= 0)
            return static_cast<unsigned>(zero);
        // No way is stale. Sometimes the hardware heuristic punts and
        // replaces a young fill instead of ageing the whole set; this
        // keeps referenced entries alive past exact multiples of the
        // associativity.
        if (rng.chance(skipAgeProbability)) {
            // Ages never exceed touchAge, so the youngest age is the
            // first of 1..touchAge that some way holds.
            for (std::uint8_t age = 1; age <= touchAge; ++age) {
                int young = pickAged(set, age);
                if (young >= 0)
                    return static_cast<unsigned>(young);
            }
        }
        // Every way is at least 1: age them all, one subtract per
        // word, leaving the padding lanes as they are.
        for (unsigned i = 0; i < ageWords; ++i) {
            const unsigned lanes = std::min(8u, ways - 8 * i);
            row[i] -= kLaneOnes >> (64 - 8 * lanes);
        }
    }
    return drawBelow(ways);
}

} // namespace pth
