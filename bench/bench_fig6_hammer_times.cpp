/**
 * @file
 * Figure 6: per-iteration cost of implicit double-sided hammering
 * over 50 measured rounds, in the default (regular-page) setting (6a)
 * and with superpages (6b). Paper: Lenovos mostly 600-900 cycles
 * (<=1000/1100), Dell 900-1400 — all below the Figure-5 maxima.
 *
 * The 2 settings x 3 machines form one six-run campaign fanned
 * across host cores. Standard bench flags: PTH_THREADS / --threads,
 * --json, --journal/--fresh (checkpoint/resume).
 */

#include <cstdio>
#include <stdexcept>

#include "attack/pthammer.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "cpu/machine.hh"
#include "harness/bench_cli.hh"

int
main(int argc, char **argv)
{
    using namespace pth;

    BenchCli cli = BenchCli::parse(
        argc, argv,
        "Figure 6: cycles per double-sided hammer iteration");

    Campaign campaign;
    for (bool superpages : {false, true}) {
        for (MachinePreset preset : paperPresets()) {
            RunSpec spec;
            spec.label = machinePresetName(preset) +
                         (superpages ? "/superpage" : "/default");
            spec.preset = preset;
            spec.dramModel = cli.dramModel;
            spec.attack.superpages = superpages;
            spec.attack.poolBuild = cli.pool;
            spec.attack.sprayBytes = 512ull << 20;
            spec.attack.regularSampleClasses = 1;
            spec.attack.regularSampleGroups = 2;
            spec.body = [](Machine &machine,
                           const AttackConfig &attack,
                           RunResult &res) {
                PThammerAttack pthammer(machine, attack);
                pthammer.prepare();
                auto pair = pthammer.pairs().next();
                if (!pair)
                    throw std::runtime_error("no hammer pair found");
                auto timings =
                    pthammer.hammer().measureRounds(*pair, 50);

                Histogram hist(0, 2000, 100);
                for (Cycles t : timings)
                    hist.sample(static_cast<double>(t));
                res.attempts =
                    static_cast<unsigned>(timings.size());
                res.metrics.emplace_back("cycles_min",
                                         hist.quantile(0.0));
                res.metrics.emplace_back("cycles_p25",
                                         hist.quantile(0.25));
                res.metrics.emplace_back("cycles_median",
                                         hist.quantile(0.5));
                res.metrics.emplace_back("cycles_p75",
                                         hist.quantile(0.75));
                res.metrics.emplace_back("cycles_max",
                                         hist.quantile(1.0));
                res.metrics.emplace_back(
                    "pct_in_400_1000",
                    100.0 * (hist.fractionBelow(1000) -
                             hist.fractionBelow(400)));
                res.metrics.emplace_back(
                    "pct_in_900_1400",
                    100.0 * (hist.fractionBelow(1400) -
                             hist.fractionBelow(900)));
            };
            campaign.add(spec);
        }
    }

    std::vector<RunResult> results = cli.runCampaign(campaign);
    unsigned failures = BenchCli::reportFailures(results);

    std::printf("== Figure 6: cycles per double-sided hammer,"
                " 50 rounds ==\n");
    Table table({"Machine", "Setting", "min", "p25", "median", "p75",
                 "max", "% in 400-1000", "% in 900-1400"});
    for (const RunResult &run : results) {
        if (!run.ok || BenchCli::staleMetrics(run, 7))
            continue;
        const bool superpages =
            campaign.specs()[run.index].attack.superpages;
        table.addRow(
            {run.machine,
             superpages ? "superpage (6b)" : "default (6a)",
             strfmt("%.0f", run.metrics[0].second),
             strfmt("%.0f", run.metrics[1].second),
             strfmt("%.0f", run.metrics[2].second),
             strfmt("%.0f", run.metrics[3].second),
             strfmt("%.0f", run.metrics[4].second),
             strfmt("%.0f%%", run.metrics[5].second),
             strfmt("%.0f%%", run.metrics[6].second)});
    }
    table.print();
    std::printf("\npaper: Lenovos 600-900 cycles for the vast majority"
                " (all <1000-1100); Dell 900-1400 — well below the"
                " 1500/1600-cycle flip ceiling\n");

    if (!cli.emitJson(results))
        return 1;
    return failures ? 1 : 0;
}
