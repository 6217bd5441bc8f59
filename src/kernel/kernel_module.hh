/**
 * @file
 * Evaluation-only privileged kernel module.
 *
 * The paper's authors load a kernel module to (a) read PMCs while
 * calibrating eviction sets and (b) obtain L1PTE physical addresses to
 * *measure* the attack's false-positive rates. The attack itself never
 * uses it — and neither does ours; only calibration code and the
 * benches that reproduce Sections IV-C/IV-D do.
 */

#ifndef PTH_KERNEL_KERNEL_MODULE_HH
#define PTH_KERNEL_KERNEL_MODULE_HH

#include <cstdint>
#include <optional>

#include "common/types.hh"
#include "dram/address_mapping.hh"
#include "mmu/perf_counters.hh"

namespace pth
{

class Machine;
class Process;

/** Privileged introspection handle. */
class KernelModule
{
  public:
    explicit KernelModule(Machine &machine);

    /** Read a PMC event: hart 0's page-table walks, or LLC misses. */
    std::uint64_t readPmc(PmcEvent event) const;

    /** Physical address of the L1PTE mapping va in proc. */
    std::optional<PhysAddr> l1pteAddress(const Process &proc,
                                         VirtAddr va) const;

    /** DRAM location of a physical address. */
    DramLocation dramLocation(PhysAddr pa) const;

    /** Ground truth: are the L1PTEs of two vas in the same bank? */
    bool l1ptesSameBank(const Process &proc, VirtAddr va1,
                        VirtAddr va2) const;

    /** Ground truth: row-index distance between two vas' L1PTEs
     * (returns ~0ull when different banks or unmapped). */
    std::uint64_t l1pteRowDistance(const Process &proc, VirtAddr va1,
                                   VirtAddr va2) const;

    /** Ground truth: LLC global set of the L1PTE mapping va. */
    std::optional<std::uint64_t> l1pteLlcSet(const Process &proc,
                                             VirtAddr va) const;

  private:
    Machine &m;
};

} // namespace pth

#endif // PTH_KERNEL_KERNEL_MODULE_HH
