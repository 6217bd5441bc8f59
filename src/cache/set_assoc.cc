#include "cache/set_assoc.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace pth
{

SetAssocArray::SetAssocArray(std::uint64_t sets, unsigned ways_,
                             ReplacementKind kind, std::uint64_t seed)
    : ways(ways_), slots(sets * ways_, 0), validWays(sets, 0),
      policy(kind, sets, ways_, seed)
{
}

SetAssocArray::Placement
SetAssocArray::fill(std::uint64_t set, std::uint64_t key)
{
    pth_assert(!(key & kValid), "key 0x%llx overlaps the valid bit",
               static_cast<unsigned long long>(key));
    const std::uint64_t base = set * ways;
    std::uint64_t &valid = validWays[set];
    const std::uint64_t free = ~valid & (~0ull >> (64 - ways));

    unsigned w;
    std::optional<std::uint64_t> evicted;
    if (free) {
        w = lowestSetBit(free);
        valid |= 1ull << w;
    } else {
        w = policy.victim(set);
        evicted = slots[base + w] & ~kValid;
    }
    slots[base + w] = key | kValid;
    policy.insert(set, w);
    return {base + w, evicted};
}

bool
SetAssocArray::invalidate(std::uint64_t set, std::uint64_t key)
{
    unsigned w = find(set, key);
    if (w == ways)
        return false;
    slots[set * ways + w] = key;
    validWays[set] &= ~(1ull << w);
    return true;
}

void
SetAssocArray::flushAll()
{
    for (std::uint64_t &slot : slots)
        slot &= ~kValid;
    std::fill(validWays.begin(), validWays.end(), 0);
}

std::uint64_t
SetAssocArray::validCount() const
{
    std::uint64_t count = 0;
    for (std::uint64_t slot : slots)
        if (slot & kValid)
            ++count;
    return count;
}

} // namespace pth
