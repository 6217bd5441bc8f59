#include "attack/spray.hh"

#include "common/logging.hh"
#include "common/random.hh"
#include "cpu/machine.hh"

namespace pth
{

SprayManager::SprayManager(Machine &machine, const AttackConfig &config)
    : m(machine), cfg(config)
{
}

VirtAddr
SprayManager::regionBase(std::uint64_t i) const
{
    return kSprayBase + i * kSuperPageBytes;
}

std::uint64_t
SprayManager::regionOf(VirtAddr va) const
{
    return (va - kSprayBase) / kSuperPageBytes;
}

std::uint64_t
SprayManager::expectedMarker(std::uint64_t region) const
{
    return markers[region % markers.size()];
}

std::uint64_t
SprayManager::regionOfPtFrame(PhysFrame frame) const
{
    auto it = ptFrameToRegion.find(frame);
    return it == ptFrameToRegion.end() ? ~0ull : it->second;
}

Cycles
SprayManager::spray()
{
    Cycles start = m.clock().now();
    Process &proc = m.cpu().process();

    // A handful of shared user pages, each with a distinctive marker.
    userFrames.clear();
    markers.clear();
    for (unsigned i = 0; i < kUserSharedFrames; ++i) {
        PhysFrame f = m.kernel().allocUserFrame(proc);
        std::uint64_t marker = mix64(cfg.seed ^ (0xa5a5 + i)) | 1;
        m.memory().fillFramePattern(f, marker);
        userFrames.push_back(f);
        markers.push_back(marker);
    }

    // Each 2 MiB of virtual space costs the kernel one L1PT page;
    // spraying sprayBytes of L1PTs therefore maps regions * 2 MiB.
    regions = cfg.sprayBytes / kPageBytes;
    for (std::uint64_t r = 0; r < regions; ++r) {
        m.kernel().mmapSharedSameFrame(
            proc, regionBase(r), kSuperPageBytes,
            userFrames[r % userFrames.size()]);
    }

    // Record which physical frame holds each region's L1PT (readable
    // from the attacker's own mappings; here taken functionally).
    ptFrameToRegion.clear();
    for (std::uint64_t r = 0; r < regions; ++r) {
        auto frame = proc.pageTables()->l1ptFrame(regionBase(r));
        pth_assert(frame.has_value(), "spray region lost its L1PT");
        ptFrameToRegion.emplace(*frame, r);
    }
    return m.clock().now() - start;
}

VirtAddr
SprayManager::randomTarget(std::uint64_t salt) const
{
    pth_assert(regions > 0, "spray() has not run");
    std::uint64_t h = hashCombine(cfg.seed, salt, 0x7a59);
    std::uint64_t region = h % regions;
    // Page-aligned but never superpage-aligned: skip PTE index 0.
    std::uint64_t pteIdx = 1 + (mix64(h) % (kPtesPerPage - 1));
    return regionBase(region) + pteIdx * kPageBytes;
}

} // namespace pth
