/**
 * @file
 * Minimal operating-system substrate: processes with credentials,
 * address spaces backed by the defense-controlled frame allocator, and
 * the mmap flavours the attack needs (anonymous, shared-same-frame
 * spraying, 2 MiB superpages).
 *
 * Syscall and page-population costs are charged to the machine clock
 * so that Table II's preparation-time columns are simulated, not
 * invented.
 */

#ifndef PTH_KERNEL_KERNEL_HH
#define PTH_KERNEL_KERNEL_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "kernel/defense.hh"
#include "paging/page_tables.hh"

namespace pth
{

class PhysicalMemory;

/** Simulated-time source shared by CPU and kernel. */
class Clock
{
  public:
    /** Current simulated cycle. */
    Cycles now() const { return tick; }

    /** Advance simulated time. */
    void advance(Cycles cycles) { tick += cycles; }

  private:
    Cycles tick = 0;
};

/** Fixed syscall entry/exit cost, also charged per context switch. */
inline constexpr Cycles kSyscallCycles = 1500;

/** Magic value ("cred_mag") opening every struct cred. */
inline constexpr std::uint64_t kCredMagic = 0x637265645f6d6167ull;

/** Kernel cost/behaviour knobs. */
struct KernelConfig
{
    Cycles pageFaultCycles = 6200;   //!< per-page population cost
    double bootNoiseFraction = 0.04; //!< frames burned at boot (fragmentation)
    std::uint64_t seed = 0xb007;

    /** Field-wise equality (campaign snapshot-sharing detection). */
    bool operator==(const KernelConfig &) const = default;
};

/** Layout of a struct cred in kernel memory. */
struct Cred
{
    std::uint64_t magic;
    std::uint32_t uid;
    std::uint32_t gid;
    std::uint64_t pid;
};

/** One process. */
class Process
{
  public:
    Process(std::uint64_t pid_, std::uint32_t uid_) : pid_v(pid_),
        uid_v(uid_) {}

    std::uint64_t pid() const { return pid_v; }
    std::uint32_t uid() const { return uid_v; }

    /** Address space; null for lightweight (kernel-thread) processes. */
    PageTables *pageTables() { return tables.get(); }
    const PageTables *pageTables() const { return tables.get(); }

  private:
    friend class Kernel;
    std::uint64_t pid_v;
    std::uint32_t uid_v;
    std::unique_ptr<PageTables> tables;
    PhysAddr credAddr = 0;
    std::vector<PhysFrame> userFrames;
};

/** The kernel. */
class Kernel
{
  public:
    Kernel(const KernelConfig &config, PhysicalMemory &memory,
           const AddressMapping &mapping,
           const VulnerabilityModel &vulnerability, Clock &clock,
           DefenseKind defense);

    /**
     * Deep copy rewired to the new machine's memory and clock (Machine
     * snapshot/fork). Boot noise is NOT replayed — the defense policy
     * (a value, including allocator cursors), RNG, process table, and
     * all bookkeeping carry over, and each cloned process's page tables
     * are rebuilt around this kernel's frame source so future
     * page-table pages charge and register here, not in the original.
     */
    Kernel(const Kernel &other, PhysicalMemory &memory, Clock &clock);

    /**
     * Create a process.
     * @param uid Owner user id (nonzero = unprivileged).
     * @param lightweight When set, no address space is built (used to
     *        spray struct cred without paying a page-table page per
     *        process, like a kernel thread / shared-mm clone).
     */
    Process &createProcess(std::uint32_t uid, bool lightweight = false);

    /** Look up a process by pid. */
    Process &process(std::uint64_t pid);

    /**
     * mmap MAP_SHARED | MAP_FIXED | MAP_POPULATE of one physical frame
     * repeated across [va, va + bytes): the paper's spraying primitive.
     * Level-1 page tables are created eagerly; population cost is
     * charged per page-table page.
     */
    void mmapSharedSameFrame(Process &proc, VirtAddr va,
                             std::uint64_t bytes, PhysFrame frame);

    /** mmap MAP_ANONYMOUS | MAP_FIXED | MAP_POPULATE, 4 KiB pages. */
    void mmapAnon(Process &proc, VirtAddr va, std::uint64_t bytes);

    /** mmap with MAP_HUGETLB: 2 MiB superpages. */
    void mmapHuge(Process &proc, VirtAddr va, std::uint64_t bytes);

    /** Allocate one user frame for a process (owner charged). */
    PhysFrame allocUserFrame(Process &proc);

    /**
     * Burn kernel-zone frames until roughly the given fraction of the
     * zone is allocated. Models the attacker-triggered exhaustion that
     * pushes subsequent page-table allocations toward the top of the
     * kernel zone (Cheng et al.; used against CATT in Section IV-G1).
     */
    void exhaustKernelZone(double fraction);

    /** Privileged check: does this pid now run as root? */
    bool processIsRoot(const Process &proc) const;

    /** Physical address of the process's struct cred. */
    PhysAddr credAddress(const Process &proc) const { return proc.credAddr; }

    /** The placement policy in force. */
    Defense &defense() { return policy; }
    const Defense &defense() const { return policy; }

    /** Frames holding Level-1 page tables, across all processes. */
    bool frameIsL1pt(PhysFrame frame) const
    {
        return l1ptFrames.count(frame) > 0;
    }

    /** Frames holding struct cred slabs. */
    bool frameIsCredPage(PhysFrame frame) const
    {
        return credFrames.count(frame) > 0;
    }

    /** Number of Level-1 page-table pages currently allocated. */
    std::uint64_t l1ptCount() const { return l1ptFrames.size(); }

    /** Configuration in force. */
    const KernelConfig &config() const { return cfg; }

    /** Digest of kernel bookkeeping — pids, last cred page, L1PT and
     * cred frame sets, per-process state (snapshot audits). */
    std::uint64_t stateHash() const;

  private:
    /** Defense-routed frame allocation; fatal when exhausted. */
    PhysFrame allocFrame(AllocIntent intent, std::uint64_t owner);

    /** Page-table frame source for one process. */
    PageTables::FrameSource frameSourceFor(std::uint64_t pid);

    /** Place a new struct cred and write it to kernel memory. */
    PhysAddr allocCred(std::uint64_t pid, std::uint32_t uid);

    /** Burn a few random-order frames to model boot fragmentation. */
    void applyBootNoise(std::uint64_t totalFrames);

    KernelConfig cfg;
    PhysicalMemory &mem;
    Clock &clk;
    Defense policy;
    Rng rng;

    std::unordered_map<std::uint64_t, std::unique_ptr<Process>> processes;
    std::uint64_t nextPid = 1;

    std::unordered_map<PhysFrame, char> l1ptFrames;
    std::unordered_map<PhysFrame, char> credFrames;
    PhysFrame credPage = kInvalidFrame;  //!< the newest struct cred's
    std::vector<PhysFrame> burnedKernelFrames;
};

} // namespace pth

#endif // PTH_KERNEL_KERNEL_HH
