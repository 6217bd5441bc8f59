/**
 * @file
 * LLC eviction-pool construction shoot-out: the paper's
 * single-elimination baseline vs the group-testing reduction, serial
 * and multi-threaded, on both the superpage (Liu et al.) and
 * regular-page (Genkin et al.) paths — the dominant cost of
 * paper-scale campaigns.
 *
 * One campaign run per (machine, page mode, algorithm variant); each
 * run builds its own pool and reports conflict tests, line accesses,
 * sampled/extrapolated cycles and a pool fingerprint. The bench then
 * checks the tracked perf contract: the group-testing pool must be
 * byte-identical serial vs multi-threaded, and the regular-page
 * reduction must run >= 5x fewer conflict tests than the baseline at
 * paper scale.
 *
 * Conflict tests and line accesses compare the algorithms exactly;
 * the cycle columns compare two timing models — the baseline runs on
 * the machine (TLB walks and all), the group-testing path on the
 * per-class LLC+DRAM replica (dTLB-hit translation, rest-of-class
 * churn) — so treat cycle speedups as indicative, tests as exact.
 * The gain is the regular-page path's; superpage classes are a few
 * dozen lines and land near 1x by design.
 *
 * Standard bench flags (PTH_THREADS / --threads, --json,
 * --journal/--fresh) plus --tiny: test-small machine and smaller
 * samples, the scale the CI perf gate pins against
 * bench/baselines/pool_build.json.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "attack/eviction_pool.hh"
#include "attack/pool_build.hh"
#include "common/table.hh"
#include "cpu/machine.hh"
#include "harness/bench_cli.hh"

namespace
{

using namespace pth;

struct Variant
{
    const char *name;
    PoolBuildAlgorithm algorithm;
    unsigned threads;
};

const Variant kVariants[] = {
    {poolBuildAlgorithmName(PoolBuildAlgorithm::SingleElimination),
     PoolBuildAlgorithm::SingleElimination, 1},
    {poolBuildAlgorithmName(PoolBuildAlgorithm::GroupTesting),
     PoolBuildAlgorithm::GroupTesting, 1},
    {"group-testing-mt4", PoolBuildAlgorithm::GroupTesting, 4},
};
constexpr unsigned kVariantCount = 3;
constexpr const char *kModeNames[] = {"superpage", "regular"};
constexpr std::size_t kMetricCount = 7;

/** Acceptance floor: regular-page group testing vs baseline. */
constexpr double kMinRegularTestRatio = 5.0;

double
metric(const RunResult &run, const char *name)
{
    for (const auto &m : run.metrics)
        if (m.first == name)
            return m.second;
    return -1.0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool tiny = false;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (i > 0 && !std::strcmp(argv[i], "--tiny"))
            tiny = true;
        else
            args.push_back(argv[i]);
    }
    // --tiny is this bench's own flag, consumed before BenchCli.
    BenchCli cli = BenchCli::parse(
        static_cast<int>(args.size()), args.data(),
        "LLC pool construction: single-elimination vs group-testing"
        " (--tiny for the CI perf-gate scale; --pool-algo and"
        " --pool-threads are ignored here — the algorithm variants"
        " ARE this bench's sweep axis)");

    std::vector<MachinePreset> presets;
    if (tiny)
        presets.push_back(MachinePreset::TestSmall);
    else
        presets.assign(paperPresets().begin(), paperPresets().end());

    const unsigned superpageClasses = tiny ? 2 : 16;
    const unsigned regularGroups = tiny ? 2 : 4;

    Campaign campaign;
    for (MachinePreset preset : presets) {
        for (unsigned mode = 0; mode < 2; ++mode) {
            for (const Variant &variant : kVariants) {
                RunSpec spec;
                spec.label = machinePresetName(preset) + std::string("/") +
                             kModeNames[mode] + "/" + variant.name;
                spec.preset = preset;
                spec.dramModel = cli.dramModel;
                spec.attack.superpages = mode == 0;
                spec.attack.poolBuild.algorithm = variant.algorithm;
                spec.attack.poolBuild.threads = variant.threads;
                spec.body = [mode, superpageClasses, regularGroups](
                                Machine &machine,
                                const AttackConfig &attack,
                                RunResult &res) {
                    Process &proc =
                        machine.kernel().createProcess(1000);
                    machine.cpu().setProcess(proc);
                    LlcEvictionPool pool(machine, attack);
                    pool.allocateBuffer();
                    PoolBuildReport report =
                        mode == 0
                            ? pool.buildSuperpage(superpageClasses)
                            : pool.buildRegularSampled(1, regularGroups);
                    res.metrics.emplace_back(
                        "conflict_tests",
                        static_cast<double>(report.conflictTests));
                    res.metrics.emplace_back(
                        "line_accesses",
                        static_cast<double>(report.lineAccesses));
                    res.metrics.emplace_back(
                        "sampled_cycles",
                        static_cast<double>(report.sampledCycles));
                    res.metrics.emplace_back(
                        "extrapolated_cycles",
                        static_cast<double>(report.extrapolatedCycles));
                    res.metrics.emplace_back(
                        "build_minutes",
                        machine.seconds(report.extrapolatedCycles) /
                            60.0);
                    res.metrics.emplace_back(
                        "pool_sets",
                        static_cast<double>(pool.sets().size()));
                    // 32-bit slice of the pool digest: metrics travel
                    // as doubles, which hold 53 bits exactly.
                    res.metrics.emplace_back(
                        "pool_fp",
                        static_cast<double>(
                            poolFingerprint(pool.sets()) & 0xffffffff));
                };
                campaign.add(spec);
            }
        }
    }

    std::vector<RunResult> results = cli.runCampaign(campaign);
    unsigned failures = BenchCli::reportFailures(results);

    std::printf("== LLC eviction-pool construction: conflict tests"
                " per algorithm ==\n");
    Table table({"Run", "Conflict tests", "Test ratio", "Line accesses",
                 "Build minutes", "Cycle speedup", "Pool sets"});
    unsigned contractViolations = 0;
    for (std::size_t g = 0; g + kVariantCount <= results.size();
         g += kVariantCount) {
        const RunResult &base = results[g];
        const bool baseUsable =
            base.ok && !BenchCli::staleMetrics(base, kMetricCount);
        for (std::size_t v = 0; v < kVariantCount; ++v) {
            const RunResult &run = results[g + v];
            if (!run.ok || BenchCli::staleMetrics(run, kMetricCount)) {
                table.addRow({run.label, "-", "-", "-", "-", "-", "-"});
                continue;
            }
            const double tests = metric(run, "conflict_tests");
            const double ratio =
                baseUsable && tests > 0
                    ? metric(base, "conflict_tests") / tests
                    : 0.0;
            const double speedup =
                baseUsable && metric(run, "extrapolated_cycles") > 0
                    ? metric(base, "extrapolated_cycles") /
                          metric(run, "extrapolated_cycles")
                    : 0.0;
            table.addRow(
                {run.label, strfmt("%.0f", tests),
                 ratio > 0 ? strfmt("%.1fx", ratio) : std::string("-"),
                 strfmt("%.0f", metric(run, "line_accesses")),
                 strfmt("%.2f", metric(run, "build_minutes")),
                 speedup > 0 ? strfmt("%.1fx", speedup)
                             : std::string("-"),
                 strfmt("%.0f", metric(run, "pool_sets"))});
        }

        // Contract 1: group-testing pools are byte-identical serial
        // vs multi-threaded.
        const RunResult &serial = results[g + 1];
        const RunResult &threaded = results[g + 2];
        if (serial.ok && threaded.ok &&
            !BenchCli::staleMetrics(serial, kMetricCount) &&
            !BenchCli::staleMetrics(threaded, kMetricCount) &&
            (metric(serial, "pool_fp") != metric(threaded, "pool_fp") ||
             metric(serial, "pool_sets") !=
                 metric(threaded, "pool_sets"))) {
            std::printf("CONTRACT VIOLATION: %s and %s built"
                        " different pools\n",
                        serial.label.c_str(), threaded.label.c_str());
            ++contractViolations;
        }

        // Contract 2: the regular-page reduction does >= 5x fewer
        // conflict tests than single elimination at paper scale.
        const bool regularMode =
            serial.label.find("/regular/") != std::string::npos;
        if (!tiny && regularMode && baseUsable && serial.ok &&
            !BenchCli::staleMetrics(serial, kMetricCount) &&
            metric(serial, "conflict_tests") > 0) {
            const double ratio = metric(base, "conflict_tests") /
                                 metric(serial, "conflict_tests");
            if (ratio < kMinRegularTestRatio) {
                std::printf("CONTRACT VIOLATION: %s conflict-test"
                            " ratio %.1fx < %.0fx\n",
                            serial.label.c_str(), ratio,
                            kMinRegularTestRatio);
                ++contractViolations;
            }
        }
    }
    table.print();
    std::printf("\ncontract: group-testing pools byte-identical"
                " serial vs mt; regular-page reduction >= %.0fx fewer"
                " conflict tests than single elimination\n",
                kMinRegularTestRatio);

    if (!cli.emitJson(results))
        return 1;
    return failures || contractViolations ? 1 : 0;
}
