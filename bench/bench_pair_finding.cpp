/**
 * @file
 * Section IV-D: quality of the double-sided pair selection. Paper:
 * over 95 % of timing-accepted pairs are in the same bank, and 90 %
 * of those are exactly one victim row apart.
 *
 * One campaign run per machine, fanned across host cores. Standard
 * bench flags: PTH_THREADS / --threads, --json, --journal/--fresh
 * (checkpoint/resume).
 */

#include <cstdio>

#include "attack/pthammer.hh"
#include "common/table.hh"
#include "cpu/machine.hh"
#include "harness/bench_cli.hh"
#include "kernel/kernel_module.hh"

int
main(int argc, char **argv)
{
    using namespace pth;

    BenchCli cli = BenchCli::parse(
        argc, argv, "Section IV-D: double-sided pair quality");

    Campaign campaign;
    for (MachinePreset preset : paperPresets()) {
        RunSpec spec;
        spec.label = machinePresetName(preset);
        spec.preset = preset;
        spec.dramModel = cli.dramModel;
        spec.attack.superpages = true;
        spec.attack.poolBuild = cli.pool;
        spec.attack.sprayBytes = 512ull << 20;
        spec.body = [](Machine &machine, const AttackConfig &attack,
                       RunResult &res) {
            PThammerAttack pthammer(machine, attack);
            pthammer.prepare();
            KernelModule module(machine);

            const unsigned wanted = 30;
            unsigned sameBank = 0;
            unsigned oneApart = 0;
            unsigned accepted = 0;
            for (unsigned i = 0; i < wanted; ++i) {
                auto pair = pthammer.pairs().next();
                if (!pair)
                    break;
                ++accepted;
                Process &proc = machine.cpu().process();
                if (module.l1ptesSameBank(proc, pair->va1,
                                          pair->va2)) {
                    ++sameBank;
                    if (module.l1pteRowDistance(proc, pair->va1,
                                                pair->va2) == 2)
                        ++oneApart;
                }
            }
            res.attempts = accepted;
            res.metrics.emplace_back("accepted_pairs", accepted);
            res.metrics.emplace_back(
                "same_bank_pct",
                accepted ? 100.0 * sameBank / accepted : 0);
            res.metrics.emplace_back(
                "one_row_apart_pct",
                sameBank ? 100.0 * oneApart / sameBank : 0);
            res.metrics.emplace_back(
                "candidates_tried",
                static_cast<double>(
                    pthammer.pairs().candidatesTried()));
        };
        campaign.add(spec);
    }

    std::vector<RunResult> results = cli.runCampaign(campaign);
    unsigned failures = BenchCli::reportFailures(results);

    std::printf("== Section IV-D: double-sided pair quality ==\n");
    Table table({"Machine", "Accepted pairs", "Same bank",
                 "One row apart (of same-bank)", "Candidates tried"});
    for (const RunResult &run : results) {
        if (!run.ok || BenchCli::staleMetrics(run, 4))
            continue;
        table.addRow({run.machine,
                      strfmt("%.0f", run.metrics[0].second),
                      strfmt("%.0f%%", run.metrics[1].second),
                      strfmt("%.0f%%", run.metrics[2].second),
                      strfmt("%.0f", run.metrics[3].second)});
    }
    table.print();
    std::printf("\npaper: >95%% of accepted pairs share a bank; 90%% of"
                " those are one (victim) row apart\n");

    if (!cli.emitJson(results))
        return 1;
    return failures ? 1 : 0;
}
