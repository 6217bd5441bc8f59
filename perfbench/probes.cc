#include <chrono>
#include <stdexcept>

#include "attack/pthammer.hh"
#include "cpu/machine.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

/**
 * Host nanoseconds per call of f: five batches of seconds/5 each, the
 * clock read only between doubling chunks of calls, median batch.
 */
template <class F>
double
nsPerCall(F &&f, double seconds)
{
    using Clock = std::chrono::steady_clock;
    std::vector<double> perBatch;
    for (int batch = 0; batch < 5; ++batch) {
        std::uint64_t calls = 0;
        std::uint64_t chunk = 1;
        double elapsed = 0;
        const auto start = Clock::now();
        do {
            for (std::uint64_t i = 0; i < chunk; ++i)
                f();
            calls += chunk;
            elapsed =
                std::chrono::duration<double>(Clock::now() - start).count();
            if (elapsed < seconds / 100)
                chunk *= 2;
        } while (elapsed < seconds / 5);
        perBatch.push_back(elapsed * 1e9 / static_cast<double>(calls));
    }
    return median(perBatch);
}

} // namespace

std::vector<std::pair<std::string, double>>
runProbes(const pth::RunSpec &base, double secondsPerProbe)
{
    std::vector<std::pair<std::string, double>> out;
    pth::RunSpec spec = base;
    spec.body = [&out, secondsPerProbe](pth::Machine &m,
                                        const pth::AttackConfig &cfg,
                                        pth::RunResult &) {
        pth::PThammerAttack attack(m, cfg);
        attack.prepare();
        auto pair = attack.pairs().next();
        if (!pair)
            throw std::runtime_error("probe: the finder yielded no pair");

        // The region the address probes stream through: far larger than
        // the LLC, inside every preset's physical memory.
        const pth::PhysAddr region = 256ull << 20;
        const pth::PhysAddr hot = 0x10000;
        pth::Cycles now = m.clock().now();
        volatile std::uint64_t sink = 0;

        pth::CacheHierarchy &caches = m.caches();
        caches.access(hot, ++now);
        out.emplace_back("cache.hit_ns", nsPerCall([&] {
                             sink = caches.access(hot, ++now).latency;
                         }, secondsPerProbe));
        pth::PhysAddr streamed = 0;
        out.emplace_back("cache.miss_ns", nsPerCall([&] {
                             streamed = (streamed + 65 * 64) % region;
                             sink = caches.access(streamed, now += 200)
                                        .latency;
                         }, secondsPerProbe));

        pth::Mmu &mmu = m.mmu();
        const pth::VirtAddr va = pair->va1;
        mmu.translate(va, ++now);
        out.emplace_back("mmu.translate_hit_ns", nsPerCall([&] {
                             sink = mmu.translate(va, ++now).latency;
                         }, secondsPerProbe));
        out.emplace_back("mmu.translate_walk_ns", nsPerCall([&] {
                             mmu.invalidatePage(va);
                             sink = mmu.translate(va, now += 100).latency;
                         }, secondsPerProbe));

        pth::Dram &dram = m.dram();
        pth::PhysAddr row = 0;
        out.emplace_back("dram.access_ns", nsPerCall([&] {
                             row = (row + 8192) % region;
                             sink = dram.access(row, now += 100).latency;
                         }, secondsPerProbe));

        pth::EvictionSetSelector &selector = attack.selector();
        out.emplace_back("attack.selection.select_ms",
                         nsPerCall([&] {
                             sink = selector.select(va).elapsed;
                         }, secondsPerProbe) / 1e6);

        pth::TlbEvictionTool &tlb = attack.tlbTool();
        out.emplace_back("attack.tlb_eviction.evict_now_us",
                         nsPerCall([&] {
                             tlb.evictNow(va, tlb.workingSetSize());
                         }, secondsPerProbe) / 1e3);

        pth::ImplicitHammer &hammer = attack.hammer();
        unsigned fetches = 0;
        out.emplace_back("attack.implicit_hammer.iteration_us",
                         nsPerCall([&] {
                             sink = hammer.iteration(*pair, fetches);
                         }, secondsPerProbe) / 1e3);
        (void)sink;
    };
    pth::RunResult result = pth::Campaign::runOne(spec, 0);
    if (!result.ok)
        throw std::runtime_error("probe run failed: " + result.error);
    return out;
}

} // namespace perfbench
