/**
 * @file
 * Multi-hart interleaved hammering over the shared cache hierarchy.
 *
 * The single-hart implicit hammer drives one pair of aggressor rows —
 * two rows per refresh window — which a TRR-style in-DRAM tracker
 * absorbs without breaking a sweat. This bench reproduces the
 * multi-core escalation: N harts hammer bank-synchronized pairs
 * concurrently through the shared L2/LLC, stacking their activation
 * rates in one bank until the tracker's capacity is overwhelmed, while
 * an optional victim hart measures the collateral noisy-neighbor
 * latency.
 *
 * Sweep: hart counts {1, 2, --harts} against the seeded DDR3 model
 * and the TRR model, plus a noisy-neighbor run (one victim hart).
 * Contracts, checked at every scale:
 *
 *  - the multi-hart attack flips against DDR3 AND against TRR;
 *  - the single-hart attack cannot defeat TRR (0 flips) — the
 *    tracker covers one pair, multi-hart stacking is what breaks it;
 *  - the stacked activation rate at --harts is at least twice the
 *    single-hart rate;
 *  - the victim hart observes nonzero mean latency under attack.
 *
 * The campaign is deterministic (byte-identical serial, --threads N,
 * --workers N, sharded) and CI pins the --tiny report against
 * bench/baselines/multicore_hammer.json via `campaign compare`.
 *
 * Standard bench flags plus three of its own: --tiny, --harts N (the
 * top of the hart sweep, default 4) and --interleave M[:SEED] (the
 * per-hart stream merge order: round-robin/rr, the default, or
 * seeded/random with an optional seed). No other bench reads --harts
 * or --interleave, so they are parsed here. The DRAM model is this
 * bench's sweep axis, so --dram-model is rejected here.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/table.hh"
#include "harness/bench_cli.hh"

namespace
{

using namespace pth;

constexpr std::size_t kMetricCount = 5;

/** Stacking floor: multi-hart acts/window vs the single-hart rate. */
constexpr double kMinStackingFactor = 2.0;

double
metric(const RunResult &run, const char *name)
{
    for (const auto &entry : run.metrics)
        if (entry.first == name)
            return entry.second;
    return 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    // This bench's own flags; BenchCli parses the rest, and shard
    // workers get these back through passthrough. --harts is the top
    // of the hart sweep (default 4, also for --harts 1); {1, 2} below
    // it provide the single-hart reference and the scaling midpoint.
    bool tiny = false;
    unsigned topHarts = 4;
    InterleaveMode interleave = InterleaveMode::RoundRobin;
    std::uint64_t interleaveSeed = 0;
    std::vector<char *> args{argv[0]};
    std::vector<std::string> passthrough;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--tiny")) {
            tiny = true;
            passthrough.push_back("--tiny");
            continue;
        }
        if (const char *value =
                BenchCli::flagValue(argc, argv, i, "--harts")) {
            const unsigned harts =
                BenchCli::countOrExit(argv[0], "--harts", value);
            if (harts == 0) {
                std::fprintf(stderr,
                             "%s: bad --harts '%s' (need a positive"
                             " count)\n",
                             argv[0], value);
                return 2;
            }
            topHarts = harts > 1 ? harts : 4;
            passthrough.push_back(std::string("--harts=") + value);
            continue;
        }
        if (const char *value =
                BenchCli::flagValue(argc, argv, i, "--interleave")) {
            if (!parseInterleaveMode(value, interleave, interleaveSeed)) {
                std::fprintf(stderr,
                             "%s: bad --interleave '%s' (use"
                             " round-robin/rr or seeded/random,"
                             " optionally :SEED, a whole decimal"
                             " below 2^64)\n",
                             argv[0], value);
                return 2;
            }
            passthrough.push_back(std::string("--interleave=") + value);
            continue;
        }
        args.push_back(argv[i]);
    }
    BenchCli cli = BenchCli::parse(
        static_cast<int>(args.size()), args.data(),
        "multi-hart interleaved hammering: TRR defeat and"
        " noisy-neighbor latency (--tiny for the CI scale, --harts N"
        " tops the hart sweep, --interleave M[:SEED] merges the hart"
        " streams)",
        passthrough);
    if (cli.dramModel != FlipModelKind::Ddr3Seeded) {
        std::fprintf(stderr,
                     "%s: the DRAM model is this bench's sweep axis;"
                     " --dram-model is not supported here\n",
                     argv[0]);
        return 2;
    }

    RunSpec base;
    base.strategy = HammerStrategy::MultiHart;
    base.interleave = interleave;
    base.interleaveSeed = interleaveSeed;
    base.attack.poolBuild = cli.pool;
    if (tiny) {
        base.preset = MachinePreset::TestSmall;
        base.attack.superpages = true;
        base.attack.sprayBytes = 24ull << 20;
        base.attack.superpageSampleClasses = 2;
        base.attack.maxAttempts = 120;
        base.attack.hammerBudgetSeconds = 36000;
    } else {
        base.preset = MachinePreset::LenovoT420;
        base.attack.superpages = true;
    }

    Campaign campaign;
    std::vector<unsigned> hartSweep{1, 2};
    if (topHarts != 2)
        hartSweep.push_back(topHarts);
    std::size_t singleDdr3 = 0;
    std::size_t multiDdr3 = 0;
    for (unsigned harts : hartSweep) {
        RunSpec spec = base;
        spec.harts = harts;
        spec.label = strfmt("ddr3/harts%u", harts);
        std::size_t index = campaign.add(spec);
        if (harts == 1)
            singleDdr3 = index;
        if (harts == topHarts)
            multiDdr3 = index;
    }
    std::size_t singleTrr = 0;
    std::size_t multiTrr = 0;
    for (unsigned harts : {1u, topHarts}) {
        RunSpec spec = base;
        spec.harts = harts;
        spec.dramModel = FlipModelKind::Trr;
        spec.label = strfmt("trr/harts%u", harts);
        std::size_t index = campaign.add(spec);
        (harts == 1 ? singleTrr : multiTrr) = index;
    }
    RunSpec noisy = base;
    noisy.harts = topHarts;
    noisy.attack.victimHarts = 1;
    noisy.label = strfmt("ddr3/harts%u+victim", topHarts);
    const std::size_t victimRun = campaign.add(noisy);

    std::vector<RunResult> results = cli.runCampaign(campaign);
    unsigned failures = cli.failureCount(results);
    unsigned contractViolations = 0;

    Table table({"Run", "Aggr", "Victims", "Flips", "Attempts",
                 "Acts/window", "Victim lat"});
    for (const RunResult &run : results) {
        if (!run.ok || BenchCli::staleMetrics(run, kMetricCount)) {
            table.addRow({run.label, "-", "-", "-", "-", "-", "-"});
            continue;
        }
        table.addRow({run.label,
                      strfmt("%.0f", metric(run, "aggressorHarts")),
                      strfmt("%.0f", metric(run, "victimHarts")),
                      strfmt("%llu", static_cast<unsigned long long>(
                                         run.flips)),
                      strfmt("%u", run.attempts),
                      strfmt("%.0f",
                             metric(run, "stackedActsPerWindow")),
                      strfmt("%.1f",
                             metric(run, "victimMeanLatency"))});
    }
    table.print();

    auto okRun = [&](std::size_t index) {
        return index < results.size() && results[index].ok;
    };
    if (okRun(multiDdr3) && results[multiDdr3].flips == 0) {
        std::printf("CONTRACT VIOLATION: %u-hart attack produced no"
                    " flips against ddr3\n",
                    topHarts);
        ++contractViolations;
    }
    if (okRun(multiTrr) && results[multiTrr].flips == 0) {
        std::printf("CONTRACT VIOLATION: %u-hart attack produced no"
                    " flips against trr\n",
                    topHarts);
        ++contractViolations;
    }
    if (okRun(singleTrr) && results[singleTrr].flips != 0) {
        std::printf("CONTRACT VIOLATION: single-hart attack defeated"
                    " trr (%llu flips) — the tracker should absorb"
                    " one pair\n",
                    static_cast<unsigned long long>(
                        results[singleTrr].flips));
        ++contractViolations;
    }
    if (okRun(singleDdr3) && okRun(multiDdr3)) {
        const double single =
            metric(results[singleDdr3], "stackedActsPerWindow");
        const double multi =
            metric(results[multiDdr3], "stackedActsPerWindow");
        if (single <= 0 || multi < kMinStackingFactor * single) {
            std::printf("CONTRACT VIOLATION: stacked activation rate"
                        " %.0f at %u harts < %.1fx the single-hart"
                        " rate %.0f\n",
                        multi, topHarts, kMinStackingFactor, single);
            ++contractViolations;
        }
    }
    if (okRun(victimRun) &&
        metric(results[victimRun], "victimMeanLatency") <= 0) {
        std::printf("CONTRACT VIOLATION: victim hart measured no"
                    " latency under attack\n");
        ++contractViolations;
    }

    std::printf("\ncontract: %u-hart attack flips vs ddr3 and trr;"
                " single-hart cannot defeat trr; stacked acts/window"
                " >= %.1fx single-hart; victim latency measured\n",
                topHarts, kMinStackingFactor);

    if (!cli.emitJson(results))
        return 1;
    return failures || contractViolations ? 1 : 0;
}
