#include "attack/tlb_eviction.hh"

#include "common/logging.hh"
#include "cpu/machine.hh"
#include "kernel/kernel_module.hh"

namespace pth
{

TlbEvictionTool::TlbEvictionTool(Machine &machine, const AttackConfig &)
    : m(machine)
{
    const TlbConfig &tlb = m.config().tlb;
    l2Sets = tlb.l2s.sets;
    std::uint64_t totalEntries =
        tlb.l1d.sets * tlb.l1d.ways + tlb.l2s.sets * tlb.l2s.ways;
    pagesPerSet = static_cast<unsigned>(
        kTlbPoolFactor * totalEntries / l2Sets);
}

Cycles
TlbEvictionTool::prepare()
{
    Cycles start = m.clock().now();
    std::uint64_t pages = l2Sets * pagesPerSet;

    // One anonymous mapping; the kernel charges population per page.
    m.kernel().mmapAnon(m.cpu().process(), kTlbPoolBase,
                        pages * kPageBytes);

    poolPages.resize(pages);
    for (std::uint64_t k = 0; k < pages; ++k)
        poolPages[k] = kTlbPoolBase + k * kPageBytes;

    // Touch every page so its translation exists (Algorithm 1 notes
    // populating is essential to make the TLB cache the mappings).
    std::vector<VirtAddr> batch;
    batch.reserve(256);
    for (std::uint64_t k = 0; k < pages; ++k) {
        batch.push_back(poolPages[k]);
        if (batch.size() == 256) {
            m.cpu().accessBatch(batch);
            batch.clear();
        }
    }
    if (!batch.empty())
        m.cpu().accessBatch(batch);

    return m.clock().now() - start;
}

void
TlbEvictionTool::collectEvictionSet(VirtAddr target, unsigned size,
                                    std::vector<VirtAddr> &set) const
{
    pth_assert(!poolPages.empty(), "TLB pool not prepared");
    VirtPage targetVpn = target >> kPageShift;
    VirtPage baseVpn = kTlbPoolBase >> kPageShift;
    std::uint64_t firstIndex =
        (targetVpn - baseVpn) & (l2Sets - 1);  // k with vpn = target (mod)

    set.clear();
    for (unsigned j = 0; set.size() < size; ++j) {
        std::uint64_t k = firstIndex + static_cast<std::uint64_t>(j) *
                                           l2Sets;
        pth_assert(k < poolPages.size(),
                   "TLB pool too small for requested set size %u", size);
        set.push_back(poolPages[k]);
    }
}

std::vector<VirtAddr>
TlbEvictionTool::evictionSetFor(VirtAddr target, unsigned size) const
{
    std::vector<VirtAddr> set;
    set.reserve(size);
    collectEvictionSet(target, size, set);
    return set;
}

void
TlbEvictionTool::evictNow(VirtAddr target, unsigned size)
{
    collectEvictionSet(target, size, evictBuffer);
    m.cpu().accessBatch(evictBuffer);
}

double
TlbEvictionTool::profileMissRate(VirtAddr target,
                                 const std::vector<VirtAddr> &set,
                                 unsigned count, KernelModule &pmc)
{
    // Prime the target's translation.
    m.cpu().access(target);

    unsigned misses = 0;
    for (unsigned i = 0; i < count; ++i) {
        // Try to flush the target's TLB entry...
        m.cpu().accessBatch(set);
        // ...then check whether touching the target walks the tables.
        std::uint64_t before = pmc.readPmc(PmcEvent::DtlbLoadMissesWalk);
        m.cpu().access(target);
        std::uint64_t after = pmc.readPmc(PmcEvent::DtlbLoadMissesWalk);
        if (after > before)
            ++misses;
    }
    return static_cast<double>(misses) / count;
}

unsigned
TlbEvictionTool::findMinimalSetSize(VirtAddr target, KernelModule &pmc)
{
    const TlbConfig &tlb = m.config().tlb;
    // "twice bigger than the total associativity of the TLBs": with
    // 4-way L1d and 4-way L2s the initial set has 16 elements.
    unsigned initial = 2 * (tlb.l1d.ways + tlb.l2s.ways);
    initial = std::min<unsigned>(initial, pagesPerSet);

    std::vector<VirtAddr> set = evictionSetFor(target, initial);
    double threshold = profileMissRate(target, set, kTlbProfileCount, pmc);

    // Trim while effectiveness holds (Algorithm 1, lines 22-28).
    while (set.size() > 1) {
        VirtAddr removed = set.back();
        set.pop_back();
        double rate = profileMissRate(target, set, kTlbProfileCount, pmc);
        if (rate < threshold * 0.9) {
            set.push_back(removed);
            break;
        }
    }
    return static_cast<unsigned>(set.size());
}

} // namespace pth
