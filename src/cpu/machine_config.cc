#include "cpu/machine_config.hh"

#include "common/random.hh"
#include "dram/flip_model.hh"

namespace pth
{

namespace
{

/** Shared 8 GiB DDR3 layout (Table I: all machines have 8 GiB). */
DramGeometry
paperDram()
{
    DramGeometry g;
    g.sizeBytes = 8ull * 1024 * 1024 * 1024;
    g.banks = 32;
    g.rowBytes = 8192;
    return g;
}

/** Common TLB: 4-way 64-entry L1 dTLB, 4-way 512-entry L2 sTLB. */
TlbConfig
paperTlb(std::uint64_t seed)
{
    TlbConfig t;
    // Aging replacement: the paper observes the TLB is "not true LRU",
    // which is what pushes the minimal eviction set past the
    // associativity (Figure 3).
    t.l1d = {16, 4, ReplacementKind::Aging, mix64(seed ^ 0x11d)};
    t.l2s = {128, 4, ReplacementKind::Aging, mix64(seed ^ 0x125)};
    return t;
}

} // namespace

MachineConfig
MachineConfig::lenovoT420()
{
    MachineConfig m;
    m.name = "Lenovo T420";
    m.architecture = "SandyBridge";
    m.cpuModel = "i5-2540M";
    m.dramModel = "8 GiB Samsung DDR3";
    m.ghz = 2.6;
    m.dramGeometry = paperDram();
    m.dramTiming = {110, 155, 210};
    m.disturbance.refreshWindowCycles = m.cycles(0.064);
    m.disturbance.weakRowProbability = 0.012;
    m.disturbance.thresholdMin = 218'000;
    m.disturbance.thresholdMax = 300'000;
    m.disturbance.seed = 0x7420;
    m.caches.l1d = {64, 8, 1, 4, ReplacementKind::Lru};
    // L2/LLC use tree pseudo-LRU: real SandyBridge LLCs are not true
    // LRU, which is why a cycling 13-line eviction set is mostly
    // cache-served while still displacing the victim PTE (Section IV-E
    // observes exactly this).
    m.caches.l2 = {512, 8, 1, 12, ReplacementKind::TreePlru};
    m.caches.llc = {2048, 12, 2, 30, ReplacementKind::TreePlru};
    m.tlb = paperTlb(0x7420);
    m.kernel.pageFaultCycles = 6200;
    m.kernel.seed = 0x7420b007;
    m.batchOverlap = 16.0;
    return m;
}

MachineConfig
MachineConfig::lenovoX230()
{
    MachineConfig m = lenovoT420();
    m.name = "Lenovo X230";
    m.architecture = "IvyBridge";
    m.cpuModel = "i5-3230M";
    m.ghz = 2.6;
    m.dramTiming = {105, 150, 205};
    m.disturbance.refreshWindowCycles = m.cycles(0.064);
    m.disturbance.seed = 0x2230;
    m.tlb = paperTlb(0x2230);
    m.kernel.pageFaultCycles = 3950;
    m.kernel.seed = 0x2230b007;
    m.batchOverlap = 16.5;
    return m;
}

MachineConfig
MachineConfig::dellE6420()
{
    MachineConfig m;
    m.name = "Dell E6420";
    m.architecture = "SandyBridge";
    m.cpuModel = "i7-2640M";
    m.dramModel = "8 GiB Samsung DDR3";
    m.ghz = 2.8;
    m.dramGeometry = paperDram();
    m.dramTiming = {125, 175, 240};
    m.disturbance.refreshWindowCycles = m.cycles(0.064);
    m.disturbance.weakRowProbability = 0.012;
    m.disturbance.thresholdMin = 224'000;
    m.disturbance.thresholdMax = 310'000;
    m.disturbance.seed = 0x6420;
    m.caches.l1d = {64, 8, 1, 4, ReplacementKind::Lru};
    m.caches.l2 = {512, 8, 1, 14, ReplacementKind::TreePlru};
    // 16-way 4 MiB LLC, slower than the Lenovos' 3 MiB part.
    m.caches.llc = {2048, 16, 2, 38, ReplacementKind::TreePlru};
    m.tlb = paperTlb(0x6420);
    m.kernel.pageFaultCycles = 4250;
    m.kernel.seed = 0x6420b007;
    // The larger LLC eviction sets overlap a little worse.
    m.batchOverlap = 19.0;
    return m;
}

std::vector<MachineConfig>
MachineConfig::paperMachines()
{
    return {lenovoT420(), lenovoX230(), dellE6420()};
}

MachineConfig
MachineConfig::testSmall()
{
    MachineConfig m;
    m.name = "test-small";
    m.cpuModel = "sim-test";
    m.ghz = 2.0;
    m.dramGeometry.sizeBytes = 256ull * 1024 * 1024;
    m.dramGeometry.banks = 32;
    m.dramGeometry.rowBytes = 8192;
    m.dramTiming = {110, 150, 210};
    m.disturbance.refreshWindowCycles = m.cycles(0.064);
    m.disturbance.weakRowProbability = 0.05;
    m.disturbance.thresholdMin = 50'000;
    m.disturbance.thresholdMax = 80'000;
    m.disturbance.seed = 0x7e57;
    m.caches.l1d = {64, 8, 1, 4, ReplacementKind::Lru};
    m.caches.l2 = {256, 8, 1, 12, ReplacementKind::TreePlru};
    m.caches.llc = {512, 12, 2, 30, ReplacementKind::TreePlru};
    m.tlb = paperTlb(0x7e57);
    m.kernel.bootNoiseFraction = 0.02;
    m.kernel.seed = 0x7e57b007;
    return m;
}

MachineConfig &
MachineConfig::withDramModel(FlipModelKind kind)
{
    disturbance.flipModel = kind;
    const std::uint64_t size = dramGeometry.sizeBytes;
    const std::string capacity =
        size >= (1ull << 30)
            ? std::to_string(size >> 30) + " GiB"
            : std::to_string(size >> 20) + " MiB";
    switch (kind) {
    case FlipModelKind::Ddr3Seeded:
        // Generic restore: switching back cannot recover a preset's
        // flavored string ("8 GiB Samsung DDR3"), but must not leave
        // another model's name on a DDR3 device.
        dramModel = capacity + " DDR3";
        break;
    case FlipModelKind::Trr:
        dramModel = capacity + " DDR4 (TRR)";
        break;
    case FlipModelKind::Distance2:
        dramModel = capacity + " DDR4 (distance-2)";
        break;
    case FlipModelKind::Ecc:
        dramModel = capacity + " DDR3 ECC";
        break;
    }
    return *this;
}

} // namespace pth
