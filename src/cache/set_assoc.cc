#include "cache/set_assoc.hh"

#include "common/logging.hh"

namespace pth
{

SetAssocArray::SetAssocArray(std::uint64_t sets, unsigned ways_,
                             ReplacementKind kind, std::uint64_t seed)
    : ways(ways_), slots(sets * ways_, 0), policy(kind, sets, ways_, seed)
{
}

SetAssocArray::Placement
SetAssocArray::place(std::uint64_t set, std::uint64_t key)
{
    pth_assert(!(key & kValid), "key 0x%llx overlaps the valid bit",
               static_cast<unsigned long long>(key));
    const std::uint64_t base = set * ways;
    std::uint64_t *row = &slots[base];

    // One scan finds both an already-present key and the first free
    // way: most places follow a miss into a full set.
    unsigned w = ways;
    for (unsigned i = 0; i < ways; ++i) {
        if (row[i] == (key | kValid)) {
            // Already present: refresh replacement state only.
            policy.touch(set, i);
            return {base + i, std::nullopt};
        }
        if (!(row[i] & kValid) && w == ways)
            w = i;
    }

    std::optional<std::uint64_t> evicted;
    if (w == ways) {
        w = policy.victim(set);
        evicted = row[w] & ~kValid;
    }
    row[w] = key | kValid;
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
    return true;
}

void
SetAssocArray::flushAll()
{
    for (std::uint64_t &slot : slots)
        slot &= ~kValid;
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
