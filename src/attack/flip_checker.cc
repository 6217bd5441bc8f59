#include "attack/flip_checker.hh"

#include "cpu/machine.hh"

namespace pth
{

FlipChecker::FlipChecker(Machine &machine, const AttackConfig &,
                         SprayManager &sprayer_)
    : m(machine), sprayer(sprayer_)
{
}

std::vector<FlipFinding>
FlipChecker::check()
{
    // Charge the full scan: one marker read per sprayed page.
    m.clock().advance(sprayer.sprayedPages() * kCheckCyclesPerPage);

    std::vector<FlipFinding> findings;
    for (const FlipEvent &flip : m.dram().drainFlips()) {
        PhysFrame frame = flip.address >> kPageShift;
        std::uint64_t region = sprayer.regionOfPtFrame(frame);
        if (region == ~0ull)
            continue;  // landed outside our L1PTs: we cannot see it
        std::uint64_t pteIndex =
            (flip.address & (kPageBytes - 1)) / kPteBytes;
        VirtAddr va = sprayer.regionBase(region) + pteIndex * kPageBytes;

        // The attacker's actual test: does the page still read as the
        // marker it was mapped with? Flips in PTE bits that do not
        // change the translation stay invisible, exactly as on real
        // hardware.
        std::uint64_t value = 0;
        bool mapped = m.cpu().readUser64(va, value);
        if (!mapped || value != sprayer.expectedMarker(region))
            findings.push_back({va, region});
    }

    // The scan itself trashed the caches and TLB.
    m.mmu().flushTranslationCaches();
    m.caches().flushAll();
    return findings;
}

} // namespace pth
