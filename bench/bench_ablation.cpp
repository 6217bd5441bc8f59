/**
 * @file
 * Ablation of PThammer's design choices (DESIGN.md §5): what happens
 * to the implicit-access rate and iteration cost when each ingredient
 * of the shortest-walk path is removed.
 *
 *  - no TLB eviction  : the translation stays cached; no walks at all.
 *  - no LLC eviction  : walks happen but the L1PTE is cache-served.
 *  - undersized LLC set: partial eviction, degraded DRAM rate.
 *  - full path        : TLB miss + PDE-cache hit + L1PTE from DRAM.
 *
 * This is the paper's Section III-B argument, quantified. Each
 * variant is an independent campaign run with a custom measurement
 * body (its own machine, prepared from the same seed), so the five
 * variants fan out across cores and the table is reproducible
 * bit-for-bit. Standard bench flags: PTH_THREADS / --threads,
 * --json, --journal/--fresh (checkpoint/resume).
 */

#include <algorithm>
#include <cstdio>

#include "attack/pthammer.hh"
#include "common/table.hh"
#include "cpu/machine.hh"
#include "harness/bench_cli.hh"

namespace
{

using namespace pth;

/** Variant descriptor; llcFraction scales the discovered set size. */
struct Variant
{
    const char *name;
    bool tlb;
    double llcFraction;
};

/** Measure one variant on a freshly prepared machine. */
void
measureVariant(const Variant &variant, Machine &machine,
               const AttackConfig &attack, RunResult &res)
{
    PThammerAttack pthammer(machine, attack);
    pthammer.prepare();
    auto pair = pthammer.pairs().next();
    if (!pair)
        throw std::runtime_error("no hammer pair found");

    // The variant's pair: its eviction sets with the removed stages
    // emptied or cut short.
    if (!variant.tlb) {
        pair->tlbSet1.clear();
        pair->tlbSet2.clear();
    }
    std::size_t lines = static_cast<std::size_t>(
        static_cast<double>(pair->llcSet1.size()) * variant.llcFraction);
    for (std::vector<VirtAddr> *set : {&pair->llcSet1, &pair->llcSet2})
        set->resize(std::min(lines, set->size()));

    // Settle, then measure.
    ImplicitHammer &hammer = pthammer.hammer();
    unsigned dramFetches = 0;
    for (int i = 0; i < 16; ++i)
        hammer.iteration(*pair, dramFetches);
    dramFetches = 0;
    Cycles total = 0;
    const unsigned rounds = 64;
    for (unsigned i = 0; i < rounds; ++i)
        total += hammer.iteration(*pair, dramFetches);
    double cyclesPerIter = static_cast<double>(total) / rounds;
    double rate = dramFetches / (2.0 * rounds);
    double actsPerWindow =
        rate *
        static_cast<double>(
            machine.config().disturbance.refreshWindowCycles) /
        cyclesPerIter;

    res.attempts = rounds;
    res.metrics.emplace_back("cycles_per_iteration", cyclesPerIter);
    res.metrics.emplace_back("l1pte_dram_rate", rate);
    res.metrics.emplace_back("activations_per_window", actsPerWindow);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchCli cli = BenchCli::parse(
        argc, argv,
        "Section III-B ablation: eviction stages vs DRAM access");

    std::printf("== Ablation: which eviction stage buys the implicit"
                " DRAM access (Lenovo T420) ==\n");

    const Variant variants[] = {
        {"full PThammer path", true, 1.0},
        {"no TLB eviction", false, 1.0},
        {"no LLC eviction", true, 0.0},
        {"LLC set undersized (1/2)", true, 0.5},
        {"no eviction at all", false, 0.0},
    };

    Campaign campaign;
    for (const Variant &variant : variants) {
        RunSpec spec;
        spec.label = variant.name;
        spec.preset = MachinePreset::LenovoT420;
        spec.dramModel = cli.dramModel;
        spec.attack.superpages = true;
        spec.attack.poolBuild = cli.pool;
        spec.attack.sprayBytes = 256ull << 20;
        spec.attack.superpageSampleClasses = 4;
        spec.body = [variant](Machine &machine,
                              const AttackConfig &attack,
                              RunResult &res) {
            measureVariant(variant, machine, attack, res);
        };
        campaign.add(spec);
    }

    std::vector<RunResult> results = cli.runCampaign(campaign);
    unsigned failures = cli.failureCount(results);

    Table table({"Variant", "Cycles/iter", "L1PTE-from-DRAM rate",
                 "Aggressor activations / 64 ms"});
    for (const RunResult &run : results) {
        if (!run.ok || BenchCli::staleMetrics(run, 3))
            continue;
        table.addRow({run.label,
                      strfmt("%.0f", run.metrics[0].second),
                      strfmt("%.2f", run.metrics[1].second),
                      strfmt("%.0f k", run.metrics[2].second / 1000.0)});
    }
    table.print();

    MachineConfig reference = MachineConfig::lenovoT420();
    std::printf("\nthreshold for flips: >= %llu k activations per"
                " window on the weakest cells (double-sided sums both"
                " aggressors)\n",
                static_cast<unsigned long long>(
                    reference.disturbance.thresholdMin / 2000));
    std::printf("only the full path sustains DRAM-rate hammering;"
                " removing either eviction stage starves it —"
                " Section III-B's requirement, quantified\n");

    if (!cli.emitJson(results))
        return 1;
    return failures ? 1 : 0;
}
