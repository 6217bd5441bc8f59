#include "cpu/machine.hh"

#include "common/random.hh"

namespace pth
{

Machine::Machine(const MachineConfig &config)
    : cfg(config), pmem(config.dramGeometry.sizeBytes),
      dramDev(config.dramGeometry, config.dramTiming, config.disturbance,
              pmem),
      hierarchy(config.caches, dramDev, config.harts)
{
    kern = std::make_unique<Kernel>(cfg.kernel, pmem, dramDev.mapping(),
                                    dramDev.vulnerability(), clk,
                                    cfg.defense);
    mmus.reserve(cfg.harts);
    cpus.reserve(cfg.harts);
    for (unsigned h = 0; h < cfg.harts; ++h) {
        mmus.push_back(
            std::make_unique<Mmu>(cfg.tlb, pmem, hierarchy, h));
        cpus.push_back(std::make_unique<Cpu>(cfg, clk, *mmus[h],
                                             hierarchy, pmem, h));
    }
}

Machine::Machine(const Machine &other)
    : cfg(other.cfg), clk(other.clk), pmem(other.pmem),
      dramDev(other.dramDev, pmem), hierarchy(other.hierarchy, dramDev)
{
    kern = std::make_unique<Kernel>(*other.kern, pmem, clk);
    mmus.reserve(other.mmus.size());
    cpus.reserve(other.cpus.size());
    for (unsigned h = 0; h < other.hartCount(); ++h) {
        mmus.push_back(
            std::make_unique<Mmu>(*other.mmus[h], pmem, hierarchy));
        cpus.push_back(std::make_unique<Cpu>(cfg, clk, *mmus[h],
                                             hierarchy, pmem, h));
        // Point each cloned CPU at its cloned process without
        // context-switch side effects (the copied MMU state must stay
        // untouched).
        if (const Process *cur = other.cpus[h]->currentOrNull())
            cpus[h]->restoreProcess(kern->process(cur->pid()));
    }
}

std::unique_ptr<Machine>
Machine::clone() const
{
    return std::make_unique<Machine>(*this);
}

MachineSnapshot
Machine::snapshot() const
{
    return MachineSnapshot(*this);
}

std::uint64_t
Machine::stateFingerprint() const
{
    std::uint64_t h = hashCombine(0xf19, clk.now());
    h = hashCombine(h, pmem.contentHash(), pmem.materializedPages());
    h = hashCombine(h, dramDev.stateHash());
    h = hashCombine(h, hierarchy.stateHash());
    h = hashCombine(h, mmus[0]->stateHash());
    h = hashCombine(h, kern->stateHash());
    const Process *cur = cpus[0]->currentOrNull();
    h = hashCombine(h, cur ? cur->pid() + 1 : 0);
    // Extra harts' MMU state and current process fold in after the
    // single-hart digest, so a harts=1 machine fingerprints
    // byte-identically to the pre-multi-hart code (pinned by
    // tests/test_multihart.cpp).
    for (std::size_t i = 1; i < mmus.size(); ++i) {
        const Process *p = cpus[i]->currentOrNull();
        h = hashCombine(h, mmus[i]->stateHash(), p ? p->pid() + 1 : 0);
    }
    return h;
}

} // namespace pth
