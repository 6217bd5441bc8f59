#include "kernel/kernel_module.hh"

#include "cpu/machine.hh"

namespace pth
{

KernelModule::KernelModule(Machine &machine) : m(machine)
{
}

std::uint64_t
KernelModule::readPmc(PmcEvent event) const
{
    if (event == PmcEvent::DtlbLoadMissesWalk)
        return m.mmu().walker().walks();
    return m.caches().llcMisses();
}

std::optional<PhysAddr>
KernelModule::l1pteAddress(const Process &proc, VirtAddr va) const
{
    if (!proc.pageTables())
        return std::nullopt;
    return proc.pageTables()->l1pteAddress(va);
}

DramLocation
KernelModule::dramLocation(PhysAddr pa) const
{
    return m.dram().mapping().decompose(pa);
}

bool
KernelModule::l1ptesSameBank(const Process &proc, VirtAddr va1,
                             VirtAddr va2) const
{
    auto a1 = l1pteAddress(proc, va1);
    auto a2 = l1pteAddress(proc, va2);
    if (!a1 || !a2)
        return false;
    return dramLocation(*a1).bank == dramLocation(*a2).bank;
}

std::uint64_t
KernelModule::l1pteRowDistance(const Process &proc, VirtAddr va1,
                               VirtAddr va2) const
{
    auto a1 = l1pteAddress(proc, va1);
    auto a2 = l1pteAddress(proc, va2);
    if (!a1 || !a2)
        return ~0ull;
    DramLocation l1 = dramLocation(*a1);
    DramLocation l2 = dramLocation(*a2);
    if (l1.bank != l2.bank)
        return ~0ull;
    return l1.row > l2.row ? l1.row - l2.row : l2.row - l1.row;
}

std::optional<std::uint64_t>
KernelModule::l1pteLlcSet(const Process &proc, VirtAddr va) const
{
    auto a = l1pteAddress(proc, va);
    if (!a)
        return std::nullopt;
    return m.caches().llc().globalSet(*a);
}

} // namespace pth
