#include "attack/implicit_hammer.hh"

#include <algorithm>
#include <map>

#include "common/logging.hh"
#include "cpu/machine.hh"

namespace pth
{

ImplicitHammer::ImplicitHammer(Machine &machine, const AttackConfig &config,
                               InterleaveMode mode_,
                               std::uint64_t interleaveSeed)
    : m(machine), cfg(config), mode(mode_), seed(interleaveSeed)
{
}

Cycles
ImplicitHammer::iteration(const HammerPair &pair, unsigned &dramFetches,
                          unsigned hart)
{
    Cycles start = m.clock().now();
    Cpu &cpu = m.cpu(hart);

    // Evict both TLB entries and both L1PTE lines. The four streams
    // are independent loads, so they overlap (accessBatch).
    stream.assign(pair.tlbSet1.begin(), pair.tlbSet1.end());
    stream.insert(stream.end(), pair.tlbSet2.begin(), pair.tlbSet2.end());
    stream.insert(stream.end(), pair.llcSet1.begin(), pair.llcSet1.end());
    stream.insert(stream.end(), pair.llcSet2.begin(), pair.llcSet2.end());
    cpu.accessBatch(stream);

    // Touch the two targets: TLB miss -> PDE-cache hit -> L1PTE fetch
    // from DRAM. These two are dependent on the eviction completing,
    // so they are charged at full latency.
    AccessOutcome a1 = cpu.access(pair.va1);
    AccessOutcome a2 = cpu.access(pair.va2);
    if (a1.l1pteFromDram)
        ++dramFetches;
    if (a2.l1pteFromDram)
        ++dramFetches;

    return m.clock().now() - start;
}

HammerRunResult
ImplicitHammer::run(const HammerPair &pair, std::uint64_t iterations)
{
    return runBatch({&pair, 1}, 0, iterations);
}

std::optional<AggressorRows>
ImplicitHammer::aggressorRows(const HammerPair &pair) const
{
    auto pt = m.cpu().process().pageTables();
    auto pte1 = pt->l1pteAddress(pair.va1);
    auto pte2 = pt->l1pteAddress(pair.va2);
    if (!pte1 || !pte2)
        return std::nullopt;
    DramLocation l1 = m.dram().mapping().decompose(*pte1);
    DramLocation l2 = m.dram().mapping().decompose(*pte2);
    if (l1.bank != l2.bank)
        return std::nullopt;
    return AggressorRows{l1.bank, l1.row, l2.row};
}

HammerRunResult
ImplicitHammer::runBatch(std::span<const HammerPair> pairs,
                         unsigned victims, std::uint64_t iterationsPerHart)
{
    const unsigned aggressors = static_cast<unsigned>(pairs.size());
    pth_assert(aggressors >= 1 && aggressors + victims <= m.hartCount(),
               "a hammer batch needs a hart per pair and per victim");
    if (iterationsPerHart > 0 && cfg.hammerWarmupIterations == 0)
        fatal("hammerWarmupIterations is 0: no measured iteration cost"
              " to extrapolate %llu hammer iterations from",
              static_cast<unsigned long long>(iterationsPerHart));

    HammerRunResult res;
    res.aggressors = aggressors;
    res.victims = victims;
    Cycles start = m.clock().now();
    std::uint64_t flipsBefore = m.dram().totalFlips();

    // Aggressor harts beyond hart 0 join the attacker's address space
    // (threads of the attacking process); setProcess charges the
    // context-switch cost and flushes only that hart's own TLB/PSC.
    for (unsigned h = 1; h < aggressors; ++h)
        m.cpu(h).setProcess(m.cpu().process());

    // Victim harts run separate co-tenant processes with private
    // working sets — the noisy neighbors sharing L2/LLC/DRAM.
    std::vector<Rng> victimRngs;
    victimRngs.reserve(victims);
    for (unsigned v = 0; v < victims; ++v) {
        unsigned hart = aggressors + v;
        Process &proc = m.kernel().createProcess(3000 + v);
        m.kernel().mmapAnon(proc, kUserDataBase,
                            kVictimTrafficPages * kPageBytes);
        m.cpu(hart).setProcess(proc);
        victimRngs.emplace_back(hashCombine(cfg.seed, 0x71c71a, hart));
    }

    const unsigned warmup = static_cast<unsigned>(
        std::min<std::uint64_t>(cfg.hammerWarmupIterations,
                                iterationsPerHart));

    // Detailed phase: the interleaver serializes per-hart steps onto
    // the global clock — one aggressor iteration or one victim slot at
    // a time — until every aggressor finished its warmup share. Harts
    // contend in the shared L2/LLC and DRAM, so the measured rates
    // (and the victim's latencies) carry the cross-hart interference.
    std::vector<unsigned> done(aggressors, 0);
    std::vector<unsigned> fetches(aggressors, 0);
    std::vector<Cycles> spent(aggressors, 0);
    std::uint64_t victimAccesses = 0;
    std::uint64_t victimLatency = 0;
    Interleaver schedule(mode, seed, aggressors + victims);
    unsigned hammering = warmup > 0 ? aggressors : 0;
    while (hammering > 0) {
        unsigned hart = schedule.next();
        if (hart >= aggressors) {
            Rng &rng = victimRngs[hart - aggressors];
            for (unsigned a = 0; a < kVictimAccessesPerSlot; ++a) {
                // Two statements fix the draw order (line, then page).
                const std::uint64_t line = rng.below(kPageBytes / kLineBytes);
                const std::uint64_t page = rng.below(kVictimTrafficPages);
                AccessOutcome out = m.cpu(hart).access(
                    kUserDataBase + page * kPageBytes + line * kLineBytes);
                victimLatency += out.latency;
                ++victimAccesses;
            }
            continue;
        }
        spent[hart] += iteration(pairs[hart], fetches[hart], hart);
        if (++done[hart] == warmup) {
            schedule.finish(hart);
            --hammering;
        }
    }
    if (victimAccesses > 0)
        res.victimMeanLatency = static_cast<double>(victimLatency) /
                                static_cast<double>(victimAccesses);

    // One round = every aggressor hart completing one iteration; its
    // wall cost is the slowest hart's measured mean.
    if (warmup > 0) {
        std::uint64_t fetched = 0;
        for (unsigned i = 0; i < aggressors; ++i) {
            res.meanRoundCycles = std::max(
                res.meanRoundCycles,
                static_cast<double>(spent[i]) / warmup);
            fetched += fetches[i];
        }
        res.dramFetchRate = static_cast<double>(fetched) /
                            (2.0 * warmup * aggressors);
    }

    // Analytic bulk: the remaining iterations with the cores modelled
    // in parallel, so each hart contributes its full activation rate
    // per round and the per-bank rates stack.
    std::uint64_t remaining = iterationsPerHart - warmup;
    if (remaining > 0) {
        Cycles window = m.config().disturbance.refreshWindowCycles;
        Cycles bulkCycles = static_cast<Cycles>(
            static_cast<double>(remaining) * res.meanRoundCycles);
        std::uint64_t windows = bulkCycles / window;
        if (windows > 0) {
            struct BankRows
            {
                std::vector<std::uint64_t> rows;
                double actsPerRow = 0;
                unsigned pairCount = 0;
            };
            std::map<unsigned, BankRows> banks;
            for (unsigned i = 0; i < aggressors; ++i) {
                auto located = aggressorRows(pairs[i]);
                if (!located)
                    continue;
                double actsPerRow =
                    (static_cast<double>(fetches[i]) / (2.0 * warmup)) *
                    static_cast<double>(window) / res.meanRoundCycles;
                BankRows &group = banks[located->bank];
                for (std::uint64_t row : {located->row1, located->row2})
                    if (std::find(group.rows.begin(), group.rows.end(),
                                  row) == group.rows.end())
                        group.rows.push_back(row);
                group.actsPerRow += actsPerRow;
                ++group.pairCount;
                res.stackedActsPerWindow += 2.0 * actsPerRow;
            }
            for (const auto &[bank, group] : banks) {
                std::uint64_t acts = static_cast<std::uint64_t>(
                    group.actsPerRow / group.pairCount);
                m.dram().hammerBulk(bank, group.rows, acts, windows);
            }
        }
        m.clock().advance(bulkCycles);
    }

    res.totalCycles = m.clock().now() - start;
    res.flips = m.dram().totalFlips() - flipsBefore;
    return res;
}

std::vector<Cycles>
ImplicitHammer::measureRounds(const HammerPair &pair, unsigned rounds)
{
    std::vector<Cycles> timings;
    timings.reserve(rounds);
    unsigned dramFetches = 0;
    for (unsigned i = 0; i < rounds; ++i)
        timings.push_back(iteration(pair, dramFetches));
    return timings;
}

} // namespace pth
