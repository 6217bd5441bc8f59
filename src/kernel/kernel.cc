#include "kernel/kernel.hh"

#include "common/logging.hh"
#include "mem/physical_memory.hh"

namespace pth
{

namespace
{

/** Cost of creating one page-table page. */
constexpr Cycles kPtPageAllocCycles = 2600;

/** Other kernel frames (task_struct, stacks, ...) a process costs;
 * this sets the cred-page density the CTA exploit relies on. */
constexpr unsigned kProcessKernelFootprintFrames = 6;

} // namespace

void
Kernel::exhaustKernelZone(double fraction)
{
    std::uint64_t zone = policy.zoneFrames(AllocIntent::KernelData);
    std::uint64_t target = static_cast<std::uint64_t>(
        fraction * static_cast<double>(zone));
    for (std::uint64_t i = burnedKernelFrames.size(); i < target; ++i) {
        PhysFrame f = policy.alloc(AllocIntent::KernelData, 0);
        if (f == kInvalidFrame)
            break;
        burnedKernelFrames.push_back(f);
    }
}

Kernel::Kernel(const KernelConfig &config, PhysicalMemory &memory,
               const AddressMapping &mapping,
               const VulnerabilityModel &vulnerability, Clock &clock,
               DefenseKind defense)
    : cfg(config), mem(memory), clk(clock),
      policy(defense, mapping, vulnerability, memory.frames()),
      rng(config.seed)
{
    applyBootNoise(memory.frames());
}

Kernel::Kernel(const Kernel &other, PhysicalMemory &memory, Clock &clock)
    : cfg(other.cfg), mem(memory), clk(clock), policy(other.policy),
      rng(other.rng), nextPid(other.nextPid), l1ptFrames(other.l1ptFrames),
      credFrames(other.credFrames), credPage(other.credPage),
      burnedKernelFrames(other.burnedKernelFrames)
{
    // determinism: copy into a fresh map — visit order does not
    // affect the resulting container contents.
    for (const auto &item : other.processes) {
        const Process &src = *item.second;
        auto proc = std::make_unique<Process>(src.pid_v, src.uid_v);
        proc->credAddr = src.credAddr;
        proc->userFrames = src.userFrames;
        if (src.tables)
            proc->tables = std::make_unique<PageTables>(
                *src.tables, memory, frameSourceFor(src.pid_v));
        processes.emplace(item.first, std::move(proc));
    }
}

void
Kernel::applyBootNoise(std::uint64_t totalFrames)
{
    // Emulate boot-time fragmentation: a sprinkling of allocations that
    // stay live, so streaming allocations later are *mostly* but not
    // perfectly consecutive — the source of the paper's ~90 %
    // one-row-apart rate (Section IV-D).
    std::uint64_t burn =
        static_cast<std::uint64_t>(cfg.bootNoiseFraction *
                                   static_cast<double>(totalFrames));
    for (std::uint64_t i = 0; i < burn; ++i) {
        // Alternate intents so every zone of every defense fragments.
        AllocIntent intent = (i % 8 == 0) ? AllocIntent::KernelData
                                          : AllocIntent::UserData;
        PhysFrame f = policy.alloc(intent, /*owner=*/0);
        if (f == kInvalidFrame)
            break;
        // Keep ~1/3 of them; return the rest to punch holes.
        if (rng.chance(0.66))
            policy.free(f, intent, 0);
    }
}

PhysFrame
Kernel::allocFrame(AllocIntent intent, std::uint64_t owner)
{
    PhysFrame f = policy.alloc(intent, owner);
    if (f == kInvalidFrame)
        fatal("out of physical memory (defense=%s, intent=%d)",
              policy.name().c_str(), static_cast<int>(intent));
    return f;
}

PageTables::FrameSource
Kernel::frameSourceFor(std::uint64_t pid)
{
    return [this, pid](PtLevel level) {
        AllocIntent intent = level == PtLevel::Pte
                                 ? AllocIntent::PageTableL1
                                 : AllocIntent::PageTableUpper;
        PhysFrame f = allocFrame(intent, pid);
        if (level == PtLevel::Pte)
            l1ptFrames.emplace(f, 0);
        clk.advance(kPtPageAllocCycles);
        return f;
    };
}

Process &
Kernel::createProcess(std::uint32_t uid, bool lightweight)
{
    std::uint64_t pid = nextPid++;
    auto proc = std::make_unique<Process>(pid, uid);
    proc->credAddr = allocCred(pid, uid);
    // Every process also costs the kernel task_struct, stack and
    // housekeeping pages.
    for (unsigned i = 0; i < kProcessKernelFootprintFrames; ++i)
        burnedKernelFrames.push_back(
            allocFrame(AllocIntent::KernelData, 0));
    if (!lightweight)
        proc->tables =
            std::make_unique<PageTables>(mem, frameSourceFor(pid));
    clk.advance(kSyscallCycles);
    Process &ref = *proc;
    processes.emplace(pid, std::move(proc));
    return ref;
}

Process &
Kernel::process(std::uint64_t pid)
{
    auto it = processes.find(pid);
    pth_assert(it != processes.end(), "no such pid %llu",
               static_cast<unsigned long long>(pid));
    return *it->second;
}

PhysAddr
Kernel::allocCred(std::uint64_t pid, std::uint32_t uid)
{
    // One struct cred per slab page, at its start.
    credPage = allocFrame(AllocIntent::KernelData, 0);
    credFrames.emplace(credPage, 0);
    PhysAddr base = credPage << kPageShift;

    mem.write64(base + 0, kCredMagic);
    mem.write64(base + 8,
                (static_cast<std::uint64_t>(uid) << 32) | uid);
    mem.write64(base + 16, pid);
    return base;
}

bool
Kernel::processIsRoot(const Process &proc) const
{
    // The kernel trusts the in-memory cred, exactly like the real one:
    // an attacker who can write the cred page becomes root.
    std::uint64_t uidWord = mem.read64(proc.credAddr + 8);
    return static_cast<std::uint32_t>(uidWord) == 0;
}

void
Kernel::mmapSharedSameFrame(Process &proc, VirtAddr va,
                            std::uint64_t bytes, PhysFrame frame)
{
    pth_assert(proc.pageTables(), "lightweight process has no mm");
    pth_assert(va % kPageBytes == 0 && bytes % kPageBytes == 0,
               "unaligned mmap");
    std::uint64_t pages = bytes / kPageBytes;
    std::uint64_t l1ptsBefore = l1ptFrames.size();
    proc.pageTables()->mapRange4kSameFrame(va, pages, frame);
    std::uint64_t l1ptsCreated = l1ptFrames.size() - l1ptsBefore;
    // Population cost: one fault-ish charge per page-table page built
    // (the per-PTE work is batched by the kernel's fault-around).
    clk.advance(kSyscallCycles + l1ptsCreated * cfg.pageFaultCycles);
}

void
Kernel::mmapAnon(Process &proc, VirtAddr va, std::uint64_t bytes)
{
    pth_assert(proc.pageTables(), "lightweight process has no mm");
    pth_assert(va % kPageBytes == 0 && bytes % kPageBytes == 0,
               "unaligned mmap");
    std::uint64_t pages = bytes / kPageBytes;
    for (std::uint64_t i = 0; i < pages; ++i) {
        PhysFrame f = allocFrame(AllocIntent::UserData, proc.pid());
        proc.userFrames.push_back(f);
        proc.pageTables()->map4k(va + i * kPageBytes, f);
        clk.advance(cfg.pageFaultCycles);
    }
    clk.advance(kSyscallCycles);
}

void
Kernel::mmapHuge(Process &proc, VirtAddr va, std::uint64_t bytes)
{
    pth_assert(proc.pageTables(), "lightweight process has no mm");
    pth_assert(va % kSuperPageBytes == 0 && bytes % kSuperPageBytes == 0,
               "unaligned huge mmap");
    std::uint64_t supers = bytes / kSuperPageBytes;
    for (std::uint64_t i = 0; i < supers; ++i) {
        // A 2 MiB page needs 512 consecutive, aligned frames: order-9
        // allocation. Defenses expose only single-frame allocation, so
        // grab frames until a naturally-aligned run materializes; with
        // buddy-backed zones the very first attempt is aligned.
        PhysFrame f = kInvalidFrame;
        for (int attempt = 0; attempt < 4096; ++attempt) {
            PhysFrame candidate = allocFrame(AllocIntent::UserData,
                                             proc.pid());
            bool aligned = (candidate & 0x1ffull) == 0;
            bool runFree = true;
            if (aligned) {
                // Claim the remaining 511 frames of the run.
                std::vector<PhysFrame> claimed;
                for (unsigned k = 1; k < 512 && runFree; ++k) {
                    PhysFrame nf = allocFrame(AllocIntent::UserData,
                                              proc.pid());
                    claimed.push_back(nf);
                    if (nf != candidate + k)
                        runFree = false;
                }
                if (runFree) {
                    f = candidate;
                    proc.userFrames.push_back(candidate);
                    for (PhysFrame cf : claimed)
                        proc.userFrames.push_back(cf);
                    break;
                }
                for (PhysFrame cf : claimed)
                    policy.free(cf, AllocIntent::UserData, proc.pid());
            }
            proc.userFrames.push_back(candidate);  // burned, stays live
        }
        if (f == kInvalidFrame)
            fatal("could not assemble a 2 MiB superpage");
        proc.pageTables()->map2m(va + i * kSuperPageBytes, f);
        clk.advance(cfg.pageFaultCycles);
    }
    clk.advance(kSyscallCycles);
}

PhysFrame
Kernel::allocUserFrame(Process &proc)
{
    PhysFrame f = allocFrame(AllocIntent::UserData, proc.pid());
    proc.userFrames.push_back(f);
    return f;
}

std::uint64_t
Kernel::stateHash() const
{
    std::uint64_t h = hashCombine(0x6e1, nextPid, credPage);
    // 1 once a cred exists, 0 before: pinned digests fold it here.
    h = hashCombine(h, credPage != kInvalidFrame, policy.stateHash(),
                    rng.stateHash());
    for (PhysFrame frame : burnedKernelFrames)
        h = hashCombine(h, frame);
    // determinism: commutative folds — iteration order of the
    // unordered maps cannot affect the sums.
    std::uint64_t frameSets = 0;
    for (const auto &item : l1ptFrames)
        frameSets += mix64(item.first);
    // determinism: commutative fold (see above).
    for (const auto &item : credFrames)
        frameSets += mix64(~item.first);
    h = hashCombine(h, frameSets);
    std::uint64_t procs = 0;
    // determinism: commutative fold (see above).
    for (const auto &item : processes) {
        const Process &proc = *item.second;
        std::uint64_t p = hashCombine(proc.pid_v, proc.uid_v,
                                      proc.credAddr);
        p = hashCombine(p, proc.userFrames.size(),
                        proc.tables ? proc.tables->root() + 1 : 0);
        for (PhysFrame frame : proc.userFrames)
            p = hashCombine(p, frame);
        procs += mix64(p);
    }
    return hashCombine(h, procs);
}

} // namespace pth
