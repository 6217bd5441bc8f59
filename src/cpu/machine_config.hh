/**
 * @file
 * Full-machine configurations, including presets for the three
 * Table-I laptops the paper evaluates.
 */

#ifndef PTH_CPU_MACHINE_CONFIG_HH
#define PTH_CPU_MACHINE_CONFIG_HH

#include <cstdint>
#include <string>

#include "cache/cache_config.hh"
#include "dram/dram_config.hh"
#include "kernel/defense.hh"
#include "kernel/kernel.hh"
#include "tlb/tlb_config.hh"

namespace pth
{

/** Everything needed to build a Machine. */
struct MachineConfig
{
    std::string name = "generic";
    std::string architecture = "SandyBridge";
    std::string cpuModel = "generic";
    std::string dramModel = "DDR3";
    double ghz = 2.6;                 //!< core clock, for cycle<->seconds

    DramGeometry dramGeometry;
    DramTiming dramTiming;
    DisturbanceConfig disturbance;
    CacheHierarchyConfig caches;
    TlbConfig tlb;
    KernelConfig kernel;
    DefenseKind defense = DefenseKind::None;

    /**
     * Hart (hardware thread) count. Every hart gets its own Cpu,
     * two-level TLB/PSC stack and private L1; all harts share the L2,
     * the sliced LLC, the DRAM device and the kernel. The default of 1
     * replays the original single-hart machine byte-identically (the
     * extra-hart state is folded into fingerprints only when > 1).
     */
    unsigned harts = 1;

    /**
     * Memory-level-parallelism divisor applied to batched eviction-set
     * streams (an out-of-order core overlaps their misses; an in-order
     * additive model would be several times too slow).
     */
    double batchOverlap = 6.0;

    /** Convert simulated cycles to seconds at this machine's clock. */
    double seconds(Cycles cycles) const
    {
        return static_cast<double>(cycles) / (ghz * 1e9);
    }

    /** Convert seconds to cycles. */
    Cycles cycles(double secs) const
    {
        return static_cast<Cycles>(secs * ghz * 1e9);
    }

    /** Lenovo T420: SandyBridge i5-2540M, 12-way 3 MiB LLC, 8 GiB. */
    static MachineConfig lenovoT420();

    /** Lenovo X230: IvyBridge i5-3230M, 12-way 3 MiB LLC, 8 GiB. */
    static MachineConfig lenovoX230();

    /** Dell E6420: SandyBridge i7-2640M, 16-way 4 MiB LLC, 8 GiB. */
    static MachineConfig dellE6420();

    /** All three paper machines. */
    static std::vector<MachineConfig> paperMachines();

    /**
     * Scaled-down machine (256 MiB DRAM, small LLC) for unit tests.
     * Geometry ratios and code paths match the real presets.
     */
    static MachineConfig testSmall();

    /**
     * Install a non-default DRAM flip model (see dram/flip_model.hh):
     * sets disturbance.flipModel and rewrites the descriptive
     * dramModel string so reports name the scenario. Returns *this
     * for chaining onto the preset factories.
     */
    MachineConfig &withDramModel(FlipModelKind kind);

    /**
     * Field-wise equality. Campaign uses this to detect run specs whose
     * derived machines are identical and can therefore fork from one
     * warm snapshot instead of each booting from scratch. Defaulted, so
     * a field added later is compared without anyone listing it.
     */
    bool operator==(const MachineConfig &) const = default;
};

} // namespace pth

#endif // PTH_CPU_MACHINE_CONFIG_HH
