/**
 * @file
 * Machine setup cost: cold construction vs snapshot fork.
 *
 * Every campaign run used to pay full Machine construction — buddy
 * carving, boot-noise fragmentation, device wiring — even when the
 * sweep only varied the attacker seed. The campaign now builds one
 * warm machine per shared configuration and forks it per run
 * (MachineSnapshot); this bench measures both sides of that trade and
 * pins the contracts:
 *
 *  - byte identity: the campaign report of a warm-forked sweep must
 *    equal the cold-constructed report exactly (checked in-process by
 *    rerunning with reuseMachines off, and in CI by diffing --json
 *    output against a --cold-machines run);
 *  - setup speedup: at paper scale, forking must be >= 5x cheaper in
 *    host time than cold construction.
 *
 * The campaign portion (one attack-scoped seed sweep per machine) is
 * fully deterministic and is what the CI perf gate pins against
 * bench/baselines/machine_setup.json at --tiny scale. Host-time
 * numbers are printed but never journaled — they vary by host.
 *
 * Standard bench flags (PTH_THREADS / --threads, --json,
 * --journal/--fresh, --cold-machines) plus --tiny.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/table.hh"
#include "cpu/machine.hh"
#include "harness/bench_cli.hh"

namespace
{

using namespace pth;

constexpr std::size_t kMetricCount = 4;

/** Acceptance floor: cold construction / fork host time, paper scale. */
constexpr double kMinSetupSpeedup = 5.0;

constexpr VirtAddr kVa = 0x2400'0000;

/**
 * Deterministic post-setup workload: enough translation, cache and
 * DRAM traffic that any state the fork failed to carry over shows up
 * in the fingerprint and counters.
 */
void
driveBody(Machine &machine, const AttackConfig &attack, RunResult &res)
{
    Process &proc = machine.kernel().createProcess(1000);
    machine.cpu().setProcess(proc);
    machine.kernel().mmapAnon(proc, kVa, 64 * kPageBytes);
    Rng rng(attack.seed);
    std::uint64_t latency = 0;
    for (int i = 0; i < 400; ++i) {
        const std::uint64_t page = rng.below(64);
        VirtAddr va = kVa + page * kPageBytes + rng.below(8) * 64;
        latency += machine.cpu().access(va).latency;
        if (i % 23 == 0)
            machine.cpu().clflush(va);
    }
    res.metrics.emplace_back("latency_cycles",
                             static_cast<double>(latency));
    res.metrics.emplace_back(
        "llc_misses",
        static_cast<double>(machine.caches().llcMisses()));
    res.metrics.emplace_back(
        "page_walks",
        static_cast<double>(machine.mmu().walker().walks()));
    // 32-bit slice of the full machine-state digest: metrics travel
    // as doubles, which hold 53 bits exactly.
    res.metrics.emplace_back(
        "state_fp", static_cast<double>(machine.stateFingerprint() &
                                        0xffffffff));
}

double
hostMs(std::chrono::steady_clock::time_point from,
       std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
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
    // --tiny is consumed here, before BenchCli; pass it through so
    // --workers shard subprocesses rebuild the identical campaign.
    std::vector<std::string> passthrough;
    if (tiny)
        passthrough.push_back("--tiny");
    BenchCli cli = BenchCli::parse(
        static_cast<int>(args.size()), args.data(),
        "machine setup cost: cold construction vs snapshot fork"
        " (--tiny for the CI perf-gate scale)",
        passthrough);

    std::vector<MachinePreset> presets;
    if (tiny)
        presets.push_back(MachinePreset::TestSmall);
    else
        presets.assign(paperPresets().begin(), paperPresets().end());

    const unsigned seeds = 3;
    Campaign campaign;
    for (MachinePreset preset : presets) {
        RunSpec base;
        base.label = machinePresetName(preset);
        base.preset = preset;
        base.dramModel = cli.dramModel;
        base.attack.poolBuild = cli.pool;
        base.body = driveBody;
        campaign.addAttackSeedSweep(base, /*seedBase=*/100, seeds);
    }

    std::vector<RunResult> results = cli.runCampaign(campaign);
    unsigned failures = cli.failureCount(results);
    unsigned contractViolations = 0;

    std::printf("== campaign sweep (%u attack seeds per machine,"
                " %s) ==\n",
                seeds,
                cli.options.reuseMachines ? "warm-forked machines"
                                          : "cold machines");
    Table table({"Run", "Latency cycles", "LLC misses", "Page walks",
                 "State fp"});
    for (const RunResult &run : results) {
        if (!run.ok || BenchCli::staleMetrics(run, kMetricCount)) {
            table.addRow({run.label, "-", "-", "-", "-"});
            continue;
        }
        table.addRow({run.label,
                      strfmt("%.0f", run.metrics[0].second),
                      strfmt("%.0f", run.metrics[1].second),
                      strfmt("%.0f", run.metrics[2].second),
                      strfmt("%08llx",
                             static_cast<unsigned long long>(
                                 run.metrics[3].second))});
    }
    table.print();

    // Contract 1: the warm-forked report is byte-identical to a
    // cold-constructed one. Checked in-process when this invocation
    // both executed the runs itself and ran them warm.
    if (cli.options.reuseMachines && cli.options.shardCount <= 1 &&
        cli.workers <= 1 && cli.options.journalPath.empty()) {
        CampaignOptions warm;
        warm.threads = cli.options.threads;
        CampaignOptions cold = warm;
        cold.reuseMachines = false;
        const std::string warmJson =
            Campaign::toJson(campaign.run(warm));
        const std::string coldJson =
            Campaign::toJson(campaign.run(cold));
        if (warmJson != coldJson) {
            std::printf("CONTRACT VIOLATION: warm-forked report"
                        " differs from cold-constructed report\n");
            ++contractViolations;
        }
    }

    // Contract 2: forking beats cold construction by >= 5x in host
    // time at paper scale. Printed at every scale, gated only at
    // paper scale — test-small machines are cheap enough that the
    // fixed cost of a fork can dominate.
    std::printf("\n== setup cost, host time (never journaled) ==\n");
    Table setup({"Machine", "Cold ms/machine", "Fork ms/machine",
                 "Speedup"});
    const unsigned reps = 3;
    for (MachinePreset preset : presets) {
        const MachineConfig config = makeMachineConfig(preset);

        auto t0 = std::chrono::steady_clock::now();
        for (unsigned r = 0; r < reps; ++r)
            Machine cold(config);
        auto t1 = std::chrono::steady_clock::now();
        const double coldMs = hostMs(t0, t1) / reps;

        Machine warm(config);
        MachineSnapshot snap = warm.snapshot();
        auto t2 = std::chrono::steady_clock::now();
        for (unsigned r = 0; r < reps; ++r)
            std::unique_ptr<Machine> forked = snap.instantiate();
        auto t3 = std::chrono::steady_clock::now();
        const double forkMs = hostMs(t2, t3) / reps;

        const double speedup = forkMs > 0 ? coldMs / forkMs : 0.0;
        setup.addRow({machinePresetName(preset),
                      strfmt("%.2f", coldMs), strfmt("%.2f", forkMs),
                      strfmt("%.1fx", speedup)});
        if (!tiny && speedup < kMinSetupSpeedup) {
            std::printf("CONTRACT VIOLATION: %s setup speedup %.1fx"
                        " < %.0fx\n",
                        machinePresetName(preset).c_str(), speedup,
                        kMinSetupSpeedup);
            ++contractViolations;
        }
    }
    setup.print();
    std::printf("\ncontract: warm-forked campaign report"
                " byte-identical to cold; fork >= %.0fx cheaper than"
                " cold construction at paper scale\n",
                kMinSetupSpeedup);

    if (!cli.emitJson(results))
        return 1;
    return failures || contractViolations ? 1 : 0;
}
