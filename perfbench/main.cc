/**
 * @file
 * perfbench: the host-time benchmark of the simulator.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * --trace 0 covers three simulation seeds derived from N. It makes one
 * traced run per seed (reference outputs and the simulated access
 * count), then times setup-only and full untraced Campaign::runOne runs,
 * cycling through the seeds, for S seconds, and prints the end-to-end
 * metrics, timed against a reference loop (host_speed.hh). --trace 1
 * alternates untraced and traced runs of the first seed for S seconds,
 * then runs the isolated layer probes, and prints the per-layer
 * metrics. Every run's simulated outputs are checked: against the
 * recorded values when the seed has them, and always against the
 * other runs of the invocation. The last line of stdout is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "host_speed.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;
using Clock = std::chrono::steady_clock;

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** The run-level bookkeeping every mode shares. */
struct Checks
{
    unsigned attempted = 0;
    unsigned failed = 0;
    std::vector<std::string> problems;

    /** Count one run; false (and a problem) when it failed. */
    bool
    run(const pth::RunResult &r, const char *what)
    {
        ++attempted;
        if (r.ok)
            return true;
        ++failed;
        problems.push_back(std::string(what) + " run threw: " + r.error);
        return false;
    }

    /** Count a failed check of a finished run. */
    void
    fail(std::string why)
    {
        ++failed;
        problems.push_back(std::move(why));
    }

    /** Compare outputs against a reference; count a mismatch as a
     * failed run. */
    void
    compare(const Outputs &expected, const Outputs &got, const char *what)
    {
        std::vector<std::string> diff = mismatches(expected, got);
        if (diff.empty())
            return;
        std::string fields;
        for (const std::string &f : diff)
            fields += (fields.empty() ? "" : ", ") + f;
        fail(std::string(what) + " differs in: " + fields);
    }
};

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Peak resident memory, in MB, of one stock run of spec in a child
 * process of its own, read from the child's ru_maxrss; 0 if the run
 * failed. Called before the parent has run anything, so the child's
 * peak is the run's and not the heap that earlier runs left behind:
 * measured in the parent after a window of runs, the same invocation
 * read from 88.6 to 96.8 MB.
 */
double
runPeakRssMb(const pth::RunSpec &spec)
{
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0)
        return 0;
    if (pid == 0) {
        const pth::RunResult r = pth::Campaign::runOne(spec, 0);
        _exit(r.ok ? 0 : 1);
    }
    int status = 0;
    struct rusage usage = {};
    while (wait4(pid, &status, 0, &usage) < 0)
        if (errno != EINTR)
            return 0;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return 0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** The preparation fields a setup-only run shares with a full run. */
Outputs
prepFields(const Outputs &all)
{
    static const std::set<std::string> keep = {
        "report.spray_ms", "report.tlb_prep_ms", "report.llc_prep_min",
        "report.machine", "report.defense", "report.superpages"};
    Outputs out;
    for (const auto &field : all)
        if (keep.count(field.first))
            out.push_back(field);
    return out;
}

void
printJson(const Checks &checks, const std::vector<Metric> &metrics)
{
    std::string json = "{\"correct\": ";
    json += checks.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(checks.attempted);
    // A run that fails several checks is still one failed run.
    json += ", \"failed\": " +
            std::to_string(std::min(checks.failed, checks.attempted));
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[40];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        json += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + value + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

void
reportProblems(const Checks &checks)
{
    for (const std::string &p : checks.problems)
        std::fprintf(stderr, "perfbench: %s\n", p.c_str());
}

std::string
percentileNote(std::size_t n)
{
    const double p = reportablePercentile(n);
    char buf[96];
    if (p == 0)
        std::snprintf(buf, sizeof buf, "n=%zu, too few for any percentile",
                      n);
    else
        std::snprintf(buf, sizeof buf, "n=%zu, highest reportable p%g", n,
                      p);
    return buf;
}

/**
 * Simulation seeds one invocation runs: --seed N covers RunSpec seeds
 * N*subSeeds .. N*subSeeds+subSeeds-1, so that no single seed's mix of
 * phases sets the end-to-end figures alone. --trace 1 runs the first.
 */
constexpr unsigned subSeeds = 3;

std::uint64_t
subSeed(std::uint64_t seed, unsigned k)
{
    return seed * subSeeds + k;
}

/** One simulation seed of an untraced invocation. */
struct SeedRuns
{
    pth::RunSpec spec;
    pth::RunSpec setupSpec;
    const Recorded *rec = nullptr;
    Outputs reference;       //!< the traced run's outputs
    Outputs firstSetup;
    double l1 = 0;           //!< simulated L1D accesses of one run
    double simSeconds = 0;
    std::vector<double> runHost;  //!< host seconds per timed run
    std::vector<double> runRef;   //!< the same, on the nominal host
};

/** --trace 0: end-to-end metrics. */
int
runUntraced(const Workload &w, std::uint64_t seed, double seconds)
{
    Checks checks;
    std::vector<SeedRuns> seeds(subSeeds);
    std::vector<double> peakMb;
    for (unsigned k = 0; k < subSeeds; ++k) {
        SeedRuns &s = seeds[k];
        s.spec = w.spec(subSeed(seed, k));
        s.setupSpec = s.spec;
        s.setupSpec.body = setupBody;
        s.rec = w.recordFor(s.spec.seed);
        ++checks.attempted;
        peakMb.push_back(runPeakRssMb(s.spec));
        if (peakMb.back() <= 0)
            checks.fail("child run for peak RSS failed");
    }

    // Then one traced replica per seed, outside the timed window: it
    // counts the run's simulated L1D accesses (deterministic, so they
    // hold for every timed run) and its outputs are the reference every
    // timed run must reproduce.
    for (SeedRuns &s : seeds) {
        Tracer tracer;
        TracedExtras counted;
        pth::RunResult traced =
            tracedRun(s.spec, tracer, counted, /*fingerprint=*/false);
        if (!checks.run(traced, "traced"))
            continue;
        s.reference = outputsOf(traced);
        if (s.rec)
            checks.compare(s.rec->outputs, s.reference,
                           "traced run vs recorded outputs");
        s.l1 = static_cast<double>(counted.total.v[Counters::L1dAccesses]);
        s.simSeconds = traced.simSeconds;
    }

    // Setup is timed a fixed number of times up front, then full runs
    // fill the rest of the window; both cycle through the seeds. Every
    // timed call is bracketed by reference loops (host_speed.hh).
    const unsigned setupSamples = 3 * subSeeds;
    std::vector<double> setupHost;
    std::vector<double> setupRef;
    const auto start = Clock::now();
    HostSpeed host;
    for (unsigned i = 0; i < setupSamples && !checks.failed; ++i) {
        SeedRuns &s = seeds[i % subSeeds];
        pth::RunResult setup = pth::Campaign::runOne(s.setupSpec, 0);
        const double ref = host.normalise(setup.wallSeconds);
        if (!checks.run(setup, "setup"))
            break;
        Outputs got = outputsOf(setup);
        if (s.firstSetup.empty()) {
            s.firstSetup = got;
            checks.compare(prepFields(s.reference), prepFields(got),
                           "setup run vs traced run preparation");
        }
        checks.compare(s.firstSetup, got, "setup run vs first setup");
        setupHost.push_back(setup.wallSeconds);
        setupRef.push_back(ref);
    }

    auto fewestRuns = [&seeds] {
        std::size_t n = seeds[0].runHost.size();
        for (const SeedRuns &s : seeds)
            n = std::min(n, s.runHost.size());
        return n;
    };
    for (unsigned i = 0; !checks.failed; ++i) {
        if (secondsSince(start) >= seconds && fewestRuns() >= 3)
            break;
        SeedRuns &s = seeds[i % subSeeds];
        pth::RunResult full = pth::Campaign::runOne(s.spec, 0);
        const double ref = host.normalise(full.wallSeconds);
        if (checks.run(full, "timed")) {
            checks.compare(s.reference, outputsOf(full),
                           "timed run vs traced run");
            s.runHost.push_back(full.wallSeconds);
            s.runRef.push_back(ref);
        }
    }

    // A seed's cost is the median of its runs; the invocation's is the
    // sum over seeds, so each seed weighs by its own simulated work.
    double l1 = 0;
    double simSeconds = 0;
    double runHost = 0;
    double runRef = 0;
    std::printf("perfbench %s seed %llu (untraced)\n", w.name,
                static_cast<unsigned long long>(seed));
    for (const SeedRuns &s : seeds) {
        l1 += s.l1;
        simSeconds += s.simSeconds;
        runHost += median(s.runHost);
        runRef += median(s.runRef);
        std::printf("  simulation seed %llu (%s outputs): run_s %.6g s,"
                    " median of %zu runs (%s); run_ref_s %.6g s;"
                    " %.0f L1D accesses; sim_s %.9g\n",
                    static_cast<unsigned long long>(s.spec.seed),
                    s.rec ? "recorded" : "self-consistent",
                    median(s.runHost), s.runHost.size(),
                    percentileNote(s.runHost.size()).c_str(),
                    median(s.runRef), s.l1, s.simSeconds);
    }
    const double setupS = median(setupRef);
    std::printf("  %-22s %-14.6g s        sum over seeds of median run_s\n",
                "run_s", runHost);
    std::printf("  %-22s %-14.6g s        the same on the nominal host\n",
                "run_ref_s", runRef);
    std::printf("  %-22s %-14.6g s        median reference loop (nominal"
                " %g s)\n",
                "reference_loop_s", host.referenceMedian(),
                referenceLoopNominalS);
    std::printf("  %-22s %-14.6g s        median of %zu setups\n",
                "setup_host_s", median(setupHost), setupHost.size());
    std::printf("  %-22s %-14.6g s        the same on the nominal host\n",
                "setup_s", setupS);
    std::printf("  %-22s %-14.6g 1/s      simulated L1D accesses per second"
                " of run_ref_s\n",
                "sim_accesses_per_ref_s", runRef > 0 ? l1 / runRef : 0.0);
    std::printf("  %-22s %-14.6g sim_s/s  simulated seconds per host"
                " second of run_s\n",
                "sim_per_host", runHost > 0 ? simSeconds / runHost : 0.0);
    const double peak = median(peakMb);
    std::printf("  %-22s %-14.6g MB       median over seeds of one run's"
                " peak\n",
                "peak_rss_mb", peak);
    std::printf("  %-22s %-14.9g s        simulated, repeats exactly\n",
                "sim_s", simSeconds);
    const unsigned failed = std::min(checks.failed, checks.attempted);
    std::printf("  %-22s %-14.6g          %u of %u runs\n", "failed_frac",
                static_cast<double>(failed) / checks.attempted, failed,
                checks.attempted);
    reportProblems(checks);

    std::vector<Metric> metrics;
    if (checks.failed == 0 && runRef > 0)
        metrics = {
            {"sim_accesses_per_ref_s", l1 / runRef, "1/s"},
            {"setup_s", setupS, "s"},
            {"peak_rss_mb", peak, "MB"},
        };
    printJson(checks, metrics);
    return checks.failed == 0 ? 0 : 1;
}

/** Self-time spans reported per layer, as metric prefixes. */
const std::vector<std::string> &
selfTimeSpans()
{
    static const std::vector<std::string> names = {
        "harness.boot",
        "harness.teardown",
        "attack.spray",
        "attack.tlb_eviction.prepare",
        "attack.eviction_pool.build",
        "attack.pair_finder.next",
        "attack.multi_hammer.select_pairs",
        "attack.multi_hammer.run",
        "attack.implicit_hammer.run",
        "attack.flip_checker.check",
        "attack.exploit.attempt",
    };
    return names;
}

/** --trace 1: per-layer metrics. */
int
runTraced(const Workload &w, std::uint64_t seed, double seconds)
{
    const pth::RunSpec spec = w.spec(subSeed(seed, 0));
    const Recorded *rec = w.recordFor(spec.seed);
    Checks checks;
    Tracer tracer;
    std::vector<double> untracedS;
    std::vector<double> tracedS;
    std::vector<TracedExtras> extras;
    Outputs reference;
    const auto start = Clock::now();
    for (unsigned pair = 0;; ++pair) {
        // Alternate which side runs first, so drift hits both evenly.
        for (int side = 0; side < 2; ++side) {
            if ((side == 0) == (pair % 2 == 0)) {
                pth::RunResult r = pth::Campaign::runOne(spec, 0);
                if (!checks.run(r, "untraced"))
                    continue;
                if (reference.empty())
                    reference = outputsOf(r);
                checks.compare(reference, outputsOf(r),
                               "untraced run vs first run");
                untracedS.push_back(r.wallSeconds);
            } else {
                // Only the first traced run hashes the final state.
                TracedExtras x;
                pth::RunResult r = tracedRun(spec, tracer, x, extras.empty());
                if (!checks.run(r, "traced"))
                    continue;
                if (reference.empty())
                    reference = outputsOf(r);
                checks.compare(reference, outputsOf(r),
                               "traced run vs untraced runOne");
                tracedS.push_back(r.wallSeconds);
                extras.push_back(x);
            }
        }
        if (checks.failed ||
            (secondsSince(start) >= seconds && !tracedS.empty() &&
             !untracedS.empty()))
            break;
    }
    if (rec && !reference.empty())
        checks.compare(rec->outputs, reference, "run vs recorded outputs");
    char fingerprint[20] = "";
    if (!extras.empty())
        std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                      static_cast<unsigned long long>(extras[0].fingerprint));
    if (rec && !rec->fingerprint.empty() && rec->fingerprint != fingerprint)
        checks.fail(std::string("traced stateFingerprint ") + fingerprint +
                    " != recorded " + rec->fingerprint);

    std::printf("perfbench %s seed %llu, simulation seed %llu (traced, %s"
                " outputs)\n",
                w.name, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(spec.seed),
                rec ? "recorded" : "self-consistent");
    std::printf("  fingerprint %s\n", fingerprint);
    for (const auto &field : reference)
        std::printf("  output %s = %s\n", field.first.c_str(),
                    field.second.c_str());

    if (checks.failed) {
        reportProblems(checks);
        printJson(checks, {});
        return 1;
    }

    // Fold the spans: per traced run, self time by name; pooled
    // per-call samples for the percentiles.
    const std::vector<Span> &spans = tracer.spans();
    const std::vector<double> self = selfTimes(spans);
    const std::vector<Counters> selfCounts = selfWork(spans);
    const int runs = static_cast<int>(tracedS.size());
    std::map<std::string, std::vector<double>> selfByRun;
    std::vector<double> rootDur(static_cast<std::size_t>(runs) + 1, 0);
    std::vector<double> rootSelf(rootDur.size(), 0);
    std::vector<double> benchOnly(rootDur.size(), 0);
    std::vector<double> countedSelf(rootDur.size(), 0);
    std::vector<double> countedL1(rootDur.size(), 0);
    std::vector<double> nextMs;
    std::vector<double> attemptMs;
    for (const std::string &name : selfTimeSpans())
        selfByRun[name].assign(rootDur.size(), 0);
    std::map<std::string, std::pair<double, std::uint64_t>> table;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const auto run = static_cast<std::size_t>(s.run);
        if (s.parent < 0) {
            rootDur[run] = s.duration();
            rootSelf[run] = self[i];
        }
        if (s.name.rfind("trace.", 0) == 0)
            benchOnly[run] += s.duration();
        auto it = selfByRun.find(s.name);
        if (it != selfByRun.end())
            it->second[run] += self[i];
        if (s.name == "attack.pair_finder.next")
            nextMs.push_back(s.duration() * 1e3);
        if (s.name == "attack.attempt")
            attemptMs.push_back(s.duration() * 1e3);
        if (s.counted) {
            countedSelf[run] += self[i];
            countedL1[run] += static_cast<double>(
                selfCounts[i].v[Counters::L1dAccesses]);
        }
        table[s.name].first += self[i];
        ++table[s.name].second;
    }
    auto perRunMedian = [runs](const std::vector<double> &byRun) {
        return median(std::vector<double>(byRun.begin() + 1,
                                          byRun.begin() + 1 + runs));
    };
    // Spans named trace.* are the benchmark's own work inside a traced
    // run (the state hash); they count neither as program time nor as
    // tracing overhead.
    std::vector<double> coverage;
    std::vector<double> nsPerL1;
    for (int r = 1; r <= runs; ++r) {
        const auto i = static_cast<std::size_t>(r);
        coverage.push_back(1.0 - rootSelf[i] / (rootDur[i] - benchOnly[i]));
        nsPerL1.push_back(countedSelf[i] * 1e9 / countedL1[i]);
        tracedS[i - 1] -= benchOnly[i];
    }
    const double traced = median(tracedS);
    const double untraced = median(untracedS);

    std::printf("  span self time per traced run (%d runs):\n", runs);
    for (const auto &row : table)
        std::printf("    %-34s %8.4f s  %5.1f%%  calls %g\n",
                    row.first.c_str(), row.second.first / runs,
                    100.0 * row.second.first / runs / traced,
                    static_cast<double>(row.second.second) / runs);
    std::printf("  attack.pair_finder.next_ms p50 %.3f p90 %.3f (%s)\n",
                median(nextMs), percentile(nextMs, 90),
                percentileNote(nextMs.size()).c_str());
    std::printf("  attack.attempt_ms p50 %.3f p90 %.3f (%s)\n",
                median(attemptMs), percentile(attemptMs, 90),
                percentileNote(attemptMs.size()).c_str());
    std::printf("  tracing overhead %.4f s (traced %.4f s, untraced %.4f s),"
                " coverage %.4f\n",
                traced - untraced, traced, untraced, median(coverage));

    std::vector<Metric> metrics;
    for (const std::string &name : selfTimeSpans()) {
        const double s = perRunMedian(selfByRun[name]);
        metrics.push_back({name + "_s", s, "s"});
        metrics.push_back({name + "_frac", s / traced, "frac"});
    }
    metrics.push_back({"attack.pair_finder.next_ms_p50", median(nextMs), "ms"});
    metrics.push_back(
        {"attack.pair_finder.next_ms_p90", percentile(nextMs, 90), "ms"});
    metrics.push_back({"attack.pair_finder.next_n",
                       static_cast<double>(nextMs.size()), "count"});
    metrics.push_back({"attack.attempt_ms_p50", median(attemptMs), "ms"});
    metrics.push_back(
        {"attack.attempt_ms_p90", percentile(attemptMs, 90), "ms"});
    metrics.push_back(
        {"attack.attempt_n", static_cast<double>(attemptMs.size()), "count"});

    const TracedExtras &x = extras[0];
    for (std::size_t c = 0; c < Counters::Count; ++c)
        metrics.push_back({Counters::names()[c],
                           static_cast<double>(x.total.v[c]), "count"});
    metrics.push_back({"attack.pair_finder.tried",
                       static_cast<double>(x.pairsTried), "count"});
    metrics.push_back(
        {"attack.pair_finder.accept_ratio",
         x.pairsTried ? static_cast<double>(x.pairsAccepted) /
                            static_cast<double>(x.pairsTried)
                      : 0.0,
         "ratio"});
    metrics.push_back(
        {"attack.multi_hammer.seat_ratio",
         x.pairsAccepted ? static_cast<double>(x.pairsHammered) /
                               static_cast<double>(x.pairsAccepted)
                         : 0.0,
         "ratio"});
    metrics.push_back({"attack.eviction_pool.conflict_tests",
                       static_cast<double>(x.conflictTests), "count"});
    metrics.push_back({"attack.eviction_pool.line_accesses",
                       static_cast<double>(x.lineAccesses), "count"});
    metrics.push_back({"sim.host_ns_per_l1_access", median(nsPerL1), "ns"});

    for (const auto &probe : runProbes(spec, 0.25)) {
        const std::string &n = probe.first;
        const char *unit = n.size() > 3 && n.compare(n.size() - 3, 3, "_ms") == 0
                               ? "ms"
                           : n.compare(n.size() - 3, 3, "_us") == 0 ? "us"
                                                                    : "ns";
        metrics.push_back({n, probe.second, unit});
        std::printf("  probe %-36s %.4f %s\n", n.c_str(), probe.second, unit);
    }

    metrics.push_back({"trace.traced_run_s", traced, "s"});
    metrics.push_back({"trace.untraced_run_s", untraced, "s"});
    metrics.push_back({"trace.overhead_s", traced - untraced, "s"});
    metrics.push_back(
        {"trace.overhead_frac", (traced - untraced) / untraced, "frac"});
    metrics.push_back({"trace.coverage_frac", median(coverage), "frac"});
    printJson(checks, metrics);
    return 0;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N"
                 " --seconds S --trace 0|1\nworkloads:",
                 why);
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::uint64_t
parseNumber(const char *text, const char *flag)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (!*text || *end || errno || text[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    std::uint64_t seconds = 10;
    std::uint64_t trace = 0;
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        if (i + 1 >= argc)
            usage((std::string("missing value for ") + flag).c_str());
        const char *value = argv[++i];
        if (!std::strcmp(flag, "--workload"))
            workload = value;
        else if (!std::strcmp(flag, "--seed"))
            seed = parseNumber(value, flag);
        else if (!std::strcmp(flag, "--seconds"))
            seconds = parseNumber(value, flag);
        else if (!std::strcmp(flag, "--trace"))
            trace = parseNumber(value, flag);
        else
            usage((std::string("unknown flag ") + flag).c_str());
    }
    const Workload *w = findWorkload(workload);
    if (!w)
        usage(("unknown workload '" + workload + "'").c_str());
    if (trace > 1 || seconds < 1 || seconds > 600)
        usage("--trace takes 0 or 1, --seconds 1..600");

    try {
        return trace ? runTraced(*w, seed, static_cast<double>(seconds))
                     : runUntraced(*w, seed, static_cast<double>(seconds));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
