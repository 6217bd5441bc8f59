/**
 * @file
 * Figure 3: TLB miss rate vs eviction-set size (pages), on the three
 * machines. Paper: sets of 12 or more achieve consistently high
 * eviction rates; below 12 the success drops significantly.
 *
 * One campaign run per machine (each sprays and prepares its own
 * attacker, then profiles all six set sizes), fanned across host
 * cores. Standard bench flags: PTH_THREADS / --threads, --json,
 * --journal/--fresh (checkpoint/resume).
 */

#include <cstdio>

#include "attack/spray.hh"
#include "attack/tlb_eviction.hh"
#include "common/table.hh"
#include "cpu/machine.hh"
#include "harness/bench_cli.hh"
#include "kernel/kernel_module.hh"

namespace
{

constexpr unsigned kMinSize = 11;
constexpr unsigned kMaxSize = 16;

} // namespace

int
main(int argc, char **argv)
{
    using namespace pth;

    BenchCli cli = BenchCli::parse(
        argc, argv,
        "Figure 3: TLB miss rate vs eviction-set size");

    Campaign campaign;
    for (MachinePreset preset : paperPresets()) {
        RunSpec spec;
        spec.label = machinePresetName(preset);
        spec.preset = preset;
        spec.dramModel = cli.dramModel;
        spec.attack.superpages = true;
        spec.attack.sprayBytes = 64ull << 20;
        spec.body = [](Machine &machine, const AttackConfig &attack,
                       RunResult &res) {
            Process &proc = machine.kernel().createProcess(1000);
            machine.cpu().setProcess(proc);
            SprayManager sprayer(machine, attack);
            sprayer.spray();
            TlbEvictionTool tlb(machine, attack);
            tlb.prepare();
            KernelModule module(machine);

            // Average over several targets to smooth per-set noise.
            for (unsigned size = kMinSize; size <= kMaxSize; ++size) {
                double total = 0;
                const unsigned targets = 5;
                for (unsigned t = 0; t < targets; ++t) {
                    VirtAddr target = sprayer.randomTarget(100 + t);
                    auto set = tlb.evictionSetFor(target, size);
                    total +=
                        tlb.profileMissRate(target, set, 200, module);
                }
                res.metrics.emplace_back(
                    strfmt("miss_rate_pct_size%u", size),
                    100.0 * total / targets);
            }
        };
        campaign.add(spec);
    }

    std::vector<RunResult> results = cli.runCampaign(campaign);
    unsigned failures = BenchCli::reportFailures(results);

    std::printf(
        "== Figure 3: TLB miss rate (%%) vs eviction-set size ==\n");
    Table table({"Size", "Lenovo T420", "Lenovo X230", "Dell E6420"});
    // A journal from an older body shape can carry a different
    // metric count; render "-" rather than indexing past the end.
    constexpr std::size_t kMetrics = kMaxSize - kMinSize + 1;
    std::vector<char> usable(results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        usable[i] = results[i].ok &&
                    !BenchCli::staleMetrics(results[i], kMetrics);
    for (unsigned size = kMinSize; size <= kMaxSize; ++size) {
        std::vector<std::string> row{strfmt("%u", size)};
        for (std::size_t i = 0; i < results.size(); ++i)
            row.push_back(
                usable[i]
                    ? strfmt("%.1f",
                             results[i]
                                 .metrics[size - kMinSize]
                                 .second)
                    : std::string("-"));
        table.addRow(std::move(row));
    }
    table.print();
    std::printf("\npaper: miss rate drops below size 12; 12+ gives"
                " consistently high eviction on all machines\n");

    if (!cli.emitJson(results))
        return 1;
    return failures ? 1 : 0;
}
