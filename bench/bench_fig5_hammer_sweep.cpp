/**
 * @file
 * Figure 5: time until the first bit flip as a function of the
 * per-iteration cost of (explicit, clflush-based) double-sided
 * hammering, stretched with NOP padding — the experiment the paper
 * uses to find the maximum tolerable hammer cost (~1500 cycles on the
 * Lenovos, ~1600 on the Dell).
 *
 * The 3 machines x 11 padding levels form one 33-run campaign fanned
 * across host cores. Standard bench flags: PTH_THREADS / --threads,
 * --json, --journal/--fresh (checkpoint/resume).
 */

#include <cstdio>

#include "attack/explicit_hammer.hh"
#include "common/table.hh"
#include "cpu/machine.hh"
#include "harness/bench_cli.hh"

int
main(int argc, char **argv)
{
    using namespace pth;

    BenchCli cli = BenchCli::parse(
        argc, argv,
        "Figure 5: time to first flip vs hammer iteration cost");

    Campaign campaign;
    for (MachinePreset preset : paperPresets()) {
        for (unsigned nops = 0; nops <= 1300; nops += 130) {
            RunSpec spec;
            spec.label =
                machinePresetName(preset) + strfmt("/nop%u", nops);
            spec.preset = preset;
            spec.dramModel = cli.dramModel;
            spec.strategy = HammerStrategy::Explicit;
            spec.nopPadding = nops;
            spec.body = [nops](Machine &machine,
                               const AttackConfig &attack,
                               RunResult &res) {
                Process &proc = machine.kernel().createProcess(1000);
                machine.cpu().setProcess(proc);
                ExplicitHammer hammer(machine, attack);
                hammer.setup(64ull << 20);
                double cycles = hammer.measureIterationCycles(nops);
                // The paper declares "no flip" after two hours.
                ExplicitHammerResult r = hammer.run(nops, 7200);
                res.flipped = r.flipped;
                res.flips = r.flipped ? 1 : 0;
                res.attempts = static_cast<unsigned>(r.pairsHammered);
                res.metrics.emplace_back("cycles_per_iteration", cycles);
                res.metrics.emplace_back("seconds_to_first_flip",
                                         r.secondsToFirstFlip);
            };
            campaign.add(spec);
        }
    }

    std::vector<RunResult> results = cli.runCampaign(campaign);
    unsigned failures = BenchCli::reportFailures(results);

    std::printf("== Figure 5: seconds to first flip vs cycles per"
                " hammer iteration ==\n");
    Table table({"Machine", "NOP pad", "Cycles/iter", "First flip"});
    for (const RunResult &run : results) {
        if (!run.ok || BenchCli::staleMetrics(run, 2))
            continue;
        const unsigned nops = campaign.specs()[run.index].nopPadding;
        table.addRow({run.machine, strfmt("%u", nops),
                      strfmt("%.0f", run.metrics[0].second),
                      run.flipped
                          ? strfmt("%.0f s", run.metrics[1].second)
                          : "none within 2 h"});
    }
    table.print();
    std::printf("\npaper: time to first flip grows with the iteration"
                " cost; no flips within 2 h beyond ~1500 cycles"
                " (Lenovos) / ~1600 cycles (Dell)\n");

    if (!cli.emitJson(results))
        return 1;
    return failures ? 1 : 0;
}
