#include "cpu/cpu.hh"

#include "cache/cache_hierarchy.hh"
#include "common/logging.hh"
#include "mem/physical_memory.hh"
#include "mmu/mmu.hh"

namespace pth
{

Cpu::Cpu(const MachineConfig &config, Clock &clock, Mmu &mmu,
         CacheHierarchy &caches_, PhysicalMemory &memory, unsigned hart)
    : cfg(config), clk(clock), mmuRef(mmu), caches(caches_),
      mem(memory), hartIndex(hart)
{
}

void
Cpu::setProcess(Process &proc)
{
    pth_assert(proc.pageTables(), "cannot run a lightweight process");
    current = &proc;
    mmuRef.setRoot(proc.pageTables()->root());
    // A context switch also costs time and trashes some cache state;
    // the TLB/PSC flush above is the architecturally required part.
    clk.advance(cfg.kernel.syscallCycles);
}

Process &
Cpu::process()
{
    pth_assert(current, "no process installed");
    return *current;
}

AccessOutcome
Cpu::access(VirtAddr va, bool write)
{
    AccessOutcome out;
    TranslateResult tr = mmuRef.translate(va, clk.now());
    out.latency = tr.latency;
    out.causedWalk = tr.causedWalk;
    out.l1pteFromDram = tr.leafFromDram;
    if (!tr.ok) {
        // Architectural fault; the kernel would deliver SIGSEGV. The
        // latency charged is the walk that discovered the fault.
        clk.advance(out.latency);
        return out;
    }
    out.ok = true;
    mem.checkRange(tr.pa);
    out.pa = tr.pa;
    MemAccessResult dataAccess =
        caches.access(out.pa, clk.now(), hartIndex);
    (void)write;  // write-allocate: timing identical to a read here
    out.latency += dataAccess.latency;
    clk.advance(out.latency);
    return out;
}

Cycles
Cpu::accessBatch(const std::vector<VirtAddr> &vas)
{
    // Issue all accesses, summing their standalone latencies, then
    // charge the overlapped total: an OoO core sustains several
    // outstanding misses (MLP), so wall-clock is roughly the sum
    // divided by the overlap factor, floored at the longest single
    // access.
    Cycles sum = 0;
    Cycles longest = 0;
    Cycles start = clk.now();
    for (VirtAddr va : vas) {
        TranslateResult tr = mmuRef.translate(va, start);
        Cycles lat = tr.latency;
        if (tr.ok) {
            mem.checkRange(tr.pa);
            MemAccessResult dataAccess =
                caches.access(tr.pa, start, hartIndex);
            lat += dataAccess.latency;
        }
        sum += lat;
        longest = std::max(longest, lat);
    }
    Cycles charged = std::max<Cycles>(
        longest,
        static_cast<Cycles>(static_cast<double>(sum) / cfg.batchOverlap));
    clk.advance(charged);
    return charged;
}

void
Cpu::clflush(VirtAddr va)
{
    TranslateResult tr = mmuRef.translate(va, clk.now());
    Cycles lat = tr.latency;
    if (tr.ok) {
        mem.checkRange(tr.pa);
        lat += caches.clflush(tr.pa);
    }
    clk.advance(lat);
}

void
Cpu::nops(std::uint64_t n)
{
    clk.advance(n * cfg.nopCycles);
}

Cycles
Cpu::rdtsc()
{
    clk.advance(cfg.rdtscCycles);
    return clk.now();
}

Cycles
Cpu::now() const
{
    return clk.now();
}

bool
Cpu::readUser64(VirtAddr va, std::uint64_t &value) const
{
    pth_assert(current && current->pageTables(), "no process");
    auto tr = current->pageTables()->translate(va);
    if (!tr)
        return false;
    PhysAddr pa = (tr->frame << kPageShift) | (va & (kPageBytes - 1));
    value = mem.read64(pa & ~7ull);
    return true;
}

bool
Cpu::writeUser64(VirtAddr va, std::uint64_t value)
{
    pth_assert(current && current->pageTables(), "no process");
    auto tr = current->pageTables()->translate(va);
    if (!tr)
        return false;
    PhysAddr pa = (tr->frame << kPageShift) | (va & (kPageBytes - 1));
    mem.write64(pa & ~7ull, value);
    return true;
}

} // namespace pth
