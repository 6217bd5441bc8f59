/**
 * @file
 * The execution engine an (attacker) program runs on: timed loads
 * through MMU + caches + DRAM, clflush, NOP padding and rdtsc, plus
 * functional user-space reads/writes that honour (possibly corrupted)
 * page tables.
 */

#ifndef PTH_CPU_CPU_HH
#define PTH_CPU_CPU_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "cpu/machine_config.hh"
#include "kernel/kernel.hh"

namespace pth
{

class Mmu;
class CacheHierarchy;
class PhysicalMemory;

/** Cost of one NOP. */
inline constexpr Cycles kNopCycles = 1;

/** Cost of a timing read (rdtsc). */
inline constexpr Cycles kRdtscCycles = 30;

/** Outcome of one timed access. */
struct AccessOutcome
{
    bool ok = false;          //!< translation succeeded
    Cycles latency = 0;
    PhysAddr pa = 0;
    bool causedWalk = false;
    bool l1pteFromDram = false;  //!< walk fetched the leaf PTE from DRAM
};

/** The CPU front end. */
class Cpu
{
  public:
    /** @param hart Hart this front end executes on; timed accesses go
     * through that hart's private L1. */
    Cpu(const MachineConfig &config, Clock &clock, Mmu &mmu,
        CacheHierarchy &caches, PhysicalMemory &memory,
        unsigned hart = 0);

    /** Hart index this CPU executes on. */
    unsigned hart() const { return hartIndex; }

    /** Context switch: install a process's address space. */
    void setProcess(Process &proc);

    /** Currently running process. */
    Process &process();

    /** Running process, or null before the first setProcess. */
    const Process *currentOrNull() const { return current; }

    /**
     * Reinstall a process without the context-switch side effects
     * (clock charge, TLB/PSC flush). Machine's copy constructor uses
     * this to point the cloned CPU at the cloned process: the copied
     * MMU state *is* the pre-snapshot state, so flushing it would
     * break byte-identical replay.
     */
    void restoreProcess(Process &proc) { current = &proc; }

    /** Timed load/store of the line at va. Advances the clock. */
    AccessOutcome access(VirtAddr va, bool write = false);

    /**
     * Timed streaming access to many addresses with memory-level
     * parallelism: latencies overlap by the configured factor. Used
     * for eviction-set traversals, matching the paper's 600-1400-cycle
     * hammer iterations that an additive in-order model cannot hit.
     *
     * @return Total cycles charged.
     */
    Cycles accessBatch(const std::vector<VirtAddr> &vas);

    /** Timed clflush of the line at va (translates first). */
    void clflush(VirtAddr va);

    /** Execute n NOPs. */
    void nops(std::uint64_t n);

    /** Read the cycle counter (charges rdtsc cost). */
    Cycles rdtsc();

    /** Current simulated time without charging anything. */
    Cycles now() const;

    /**
     * Functional (untimed) user-space read through the current page
     * tables; reflects rowhammer-corrupted translations.
     * @return false when va is unmapped.
     */
    bool readUser64(VirtAddr va, std::uint64_t &value) const;

    /** Functional user-space write through the current page tables. */
    bool writeUser64(VirtAddr va, std::uint64_t value);

    /** The MMU (for the attack's set-mapping computations). */
    Mmu &mmu() { return mmuRef; }

  private:
    const MachineConfig &cfg;
    Clock &clk;
    Mmu &mmuRef;
    CacheHierarchy &caches;
    PhysicalMemory &mem;
    unsigned hartIndex;
    Process *current = nullptr;
};

} // namespace pth

#endif // PTH_CPU_CPU_HH
