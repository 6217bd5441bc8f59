#include "tlb/two_level_tlb.hh"

#include "common/random.hh"

namespace pth
{

TwoLevelTlb::TwoLevelTlb(const TlbConfig &config)
    : l1Tlb(config.l1d), l2Tlb(config.l2s)
{
}

TlbLookupResult
TwoLevelTlb::lookup(VirtPage vpn, bool huge)
{
    TlbLookupResult result;
    if (auto entry = l1Tlb.lookup(vpn, huge)) {
        result.hit = true;
        result.entry = *entry;
        return result;
    }
    if (auto entry = l2Tlb.lookup(vpn, huge)) {
        result.hit = true;
        result.latency = kL2TlbHitLatency;
        result.entry = *entry;
        // Promote into the L1, which has just missed it.
        l1Tlb.fill(*entry);
        return result;
    }
    result.latency = kL2TlbHitLatency;
    return result;
}

bool
TwoLevelTlb::contains(VirtPage vpn, bool huge) const
{
    return l1Tlb.contains(vpn, huge) || l2Tlb.contains(vpn, huge);
}

void
TwoLevelTlb::fill(const TlbEntry &entry)
{
    l1Tlb.fill(entry);
    l2Tlb.fill(entry);
}

void
TwoLevelTlb::invalidate(VirtPage vpn, bool huge)
{
    l1Tlb.invalidate(vpn, huge);
    l2Tlb.invalidate(vpn, huge);
}

void
TwoLevelTlb::flushAll()
{
    l1Tlb.flushAll();
    l2Tlb.flushAll();
}

std::uint64_t
TwoLevelTlb::totalEntries() const
{
    return l1Tlb.config().sets * l1Tlb.config().ways +
           l2Tlb.config().sets * l2Tlb.config().ways;
}

std::uint64_t
TwoLevelTlb::stateHash() const
{
    return hashCombine(l1Tlb.stateHash(), l2Tlb.stateHash());
}

} // namespace pth
