/**
 * @file
 * Section IV-C: false-positive rate of Algorithm 2's LLC eviction-set
 * selection, measured against the evaluation-only kernel module's
 * ground truth (the paper reports no more than 6 %, and ~1 us TLB /
 * ~290 ms LLC selection costs).
 *
 * The 3 machines x 2 page sizes form one six-run campaign fanned
 * across host cores. Standard bench flags: PTH_THREADS / --threads,
 * --json, --journal/--fresh (checkpoint/resume).
 */

#include <cstdio>

#include "attack/eviction_selection.hh"
#include "attack/spray.hh"
#include "attack/tlb_eviction.hh"
#include "common/table.hh"
#include "cpu/machine.hh"
#include "harness/bench_cli.hh"
#include "kernel/kernel_module.hh"

int
main(int argc, char **argv)
{
    using namespace pth;

    BenchCli cli = BenchCli::parse(
        argc, argv,
        "Section IV-C: eviction-set selection accuracy");

    Campaign campaign;
    for (MachinePreset preset : paperPresets()) {
        for (bool superpages : {true, false}) {
            RunSpec spec;
            spec.label = machinePresetName(preset) +
                         (superpages ? "/superpage" : "/regular");
            spec.preset = preset;
            spec.dramModel = cli.dramModel;
            spec.attack.superpages = superpages;
            spec.attack.poolBuild = cli.pool;
            spec.attack.sprayBytes = 256ull << 20;
            spec.attack.regularSampleClasses = 1;
            spec.attack.regularSampleGroups = 2;
            spec.body = [superpages](Machine &machine,
                                     const AttackConfig &attack,
                                     RunResult &res) {
                Process &proc =
                    machine.kernel().createProcess(1000);
                machine.cpu().setProcess(proc);
                SprayManager sprayer(machine, attack);
                sprayer.spray();
                TlbEvictionTool tlb(machine, attack);
                tlb.prepare();
                LlcEvictionPool pool(machine, attack);
                pool.allocateBuffer();
                if (superpages)
                    pool.buildSuperpage(2);
                else
                    pool.buildRegularSampled(1, 1);
                EvictionSetSelector selector(machine, attack, pool,
                                             tlb);
                KernelModule module(machine);

                const unsigned targets = 24;
                unsigned falsePositives = 0;
                double totalMs = 0;
                for (unsigned i = 0; i < targets; ++i) {
                    VirtAddr target =
                        sprayer.randomTarget(3000 + i);
                    SetSelection sel = selector.select(target);
                    totalMs += machine.seconds(sel.elapsed) * 1e3;
                    auto truth = module.l1pteLlcSet(proc, target);
                    if (!sel.set || !truth)
                        continue;
                    auto tr = proc.pageTables()->translate(
                        sel.set->lines.front());
                    PhysAddr pa =
                        (tr->frame << kPageShift) |
                        (sel.set->lines.front() & (kPageBytes - 1));
                    if (machine.caches().llc().globalSet(pa) != *truth)
                        ++falsePositives;
                }
                res.attempts = targets;
                res.metrics.emplace_back("targets", targets);
                res.metrics.emplace_back("false_positives",
                                         falsePositives);
                res.metrics.emplace_back(
                    "fp_rate_pct",
                    100.0 * falsePositives / targets);
                res.metrics.emplace_back("mean_select_ms",
                                         totalMs / targets);
            };
            campaign.add(spec);
        }
    }

    std::vector<RunResult> results = cli.runCampaign(campaign);
    unsigned failures = BenchCli::reportFailures(results);

    std::printf(
        "== Section IV-C: eviction-set selection accuracy ==\n");
    Table table({"Machine", "Page size", "Targets", "False positives",
                 "FP rate", "Mean selection time"});
    for (const RunResult &run : results) {
        if (!run.ok || BenchCli::staleMetrics(run, 4))
            continue;
        const bool superpages =
            campaign.specs()[run.index].attack.superpages;
        table.addRow({run.machine,
                      superpages ? "superpage" : "regular",
                      strfmt("%.0f", run.metrics[0].second),
                      strfmt("%.0f", run.metrics[1].second),
                      strfmt("%.1f%%", run.metrics[2].second),
                      strfmt("%.0f ms", run.metrics[3].second)});
    }
    table.print();
    std::printf("\npaper: <=6%% false positives in every setting;"
                " ~1 us TLB selection, ~290 ms LLC selection\n");

    if (!cli.emitJson(results))
        return 1;
    return failures ? 1 : 0;
}
