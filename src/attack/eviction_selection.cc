#include "attack/eviction_selection.hh"

#include "common/logging.hh"
#include "common/stats.hh"
#include "cpu/machine.hh"
#include "paging/pte.hh"

namespace pth
{

EvictionSetSelector::EvictionSetSelector(Machine &machine,
                                         const AttackConfig &config,
                                         LlcEvictionPool &pool_,
                                         TlbEvictionTool &tlbTool_)
    : m(machine), cfg(config), pool(pool_), tlbTool(tlbTool_),
      probe(machine.cpu(), machine.config(), config)
{
}

std::uint64_t
EvictionSetSelector::l1pteLineOffset(VirtAddr va)
{
    // The L1PTE of va sits at byte pteIndex(va) * 8 of its page-table
    // page; its cache-line index within the page is bits 6-11.
    return (pteIndex(va, PtLevel::Pte) * kPteBytes) >> kLineShift;
}

double
EvictionSetSelector::profileSet(const EvictionSet &set, VirtAddr target)
{
    unsigned detailed = std::min(cfg.llcSelectDetailedCount,
                                 cfg.llcSelectCount);
    set.firstLines(pool.workingSetSize(), lineBuffer);
    latencyBuffer.clear();

    Cycles detailedStart = m.clock().now();
    for (unsigned i = 0; i < detailed; ++i) {
        // Access every memory line of the eviction set...
        m.cpu().accessBatch(lineBuffer);
        // ...flush the target's TLB entry so the next access walks...
        tlbTool.evictNow(target, tlbTool.workingSetSize());
        // ...and time the target access.
        latencyBuffer.push_back(
            static_cast<double>(probe.timeAccess(target)));
    }
    // The paper profiles with a large repeat count; we simulate a
    // detailed prefix and charge the rest analytically.
    if (cfg.llcSelectCount > detailed && detailed > 0) {
        Cycles detailedCost = m.clock().now() - detailedStart;
        m.clock().advance(detailedCost *
                          (cfg.llcSelectCount - detailed) / detailed);
    }
    return medianInPlace(latencyBuffer);
}

SetSelection
EvictionSetSelector::select(VirtAddr target)
{
    pth_assert((target & (kPageBytes - 1)) == 0, "target not page-aligned");
    pth_assert((target & (kSuperPageBytes - 1)) != 0,
               "target must not be superpage-aligned");

    SetSelection result;
    Cycles start = m.clock().now();

    std::uint64_t wantOffset = l1pteLineOffset(target);
    // The target line's own offset is 0 (page-aligned) and wantOffset
    // of a non-superpage-aligned target is nonzero, so the selected
    // set can never evict the target's own data line.
    auto candidates = pool.candidatesForLineOffset(wantOffset);
    pth_assert(!candidates.empty(), "pool has no candidate sets");

    for (const EvictionSet *candidate : candidates) {
        double medianLatency = profileSet(*candidate, target);
        if (medianLatency > result.maxMedianLatency) {
            result.maxMedianLatency = medianLatency;
            result.set = candidate;
        }
    }
    result.elapsed = m.clock().now() - start;
    return result;
}

} // namespace pth
