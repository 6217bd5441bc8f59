/**
 * @file
 * The benchmark's own tests, dependency-free: span self-time
 * arithmetic, the percentile rule, the metric-name charset, and the
 * output check (including the traced replica's fidelity) on the
 * TestSmall multi-hart workload. Exits nonzero on the first failure.
 *
 *   cmake --build .bench_build --target perfbench_tests
 *   .bench_build/perfbench_tests
 */

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "workloads.hh"

namespace
{

using namespace perfbench;

int failures = 0;

void
expect(bool ok, const char *what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
        ++failures;
    }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

Span
span(const char *name, double start, double end, int parent)
{
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    return s;
}

void
testSelfTime()
{
    // root [0,10] > a [1,4] > a1 [2,3]; root > b [5,9].
    std::vector<Span> spans = {span("root", 0, 10, -1), span("a", 1, 4, 0),
                               span("a1", 2, 3, 1), span("b", 5, 9, 0)};
    std::vector<double> self = selfTimes(spans);
    EXPECT(near(self[0], 10 - 3 - 4));  // children only, not a1
    EXPECT(near(self[1], 3 - 1));
    EXPECT(near(self[2], 1));
    EXPECT(near(self[3], 4));

    for (Span &s : spans)
        s.counted = true;
    spans[0].work.v[Counters::L1dAccesses] = 100;
    spans[1].work.v[Counters::L1dAccesses] = 30;
    spans[2].work.v[Counters::L1dAccesses] = 10;
    spans[3].work.v[Counters::L1dAccesses] = 50;
    std::vector<Counters> work = selfWork(spans);
    EXPECT(work[0].v[Counters::L1dAccesses] == 20);
    EXPECT(work[1].v[Counters::L1dAccesses] == 20);
    EXPECT(work[3].v[Counters::L1dAccesses] == 50);

    // The recorder nests spans and refuses out-of-order closes.
    Tracer t;
    t.beginRun();
    int outer = t.open("outer");
    {
        Tracer::Scope inner(t, "inner");
    }
    bool threw = false;
    int dangling = t.open("dangling");
    try {
        t.close(outer);
    } catch (const std::logic_error &) {
        threw = true;
    }
    EXPECT(threw);
    t.close(dangling);
    t.close(outer);
    EXPECT(t.spans().size() == 3);
    EXPECT(t.spans()[1].parent == outer);
    EXPECT(t.spans()[1].run == 1);
    std::vector<double> traced = selfTimes(t.spans());
    EXPECT(traced[0] <= t.spans()[0].duration());
}

void
testPercentiles()
{
    EXPECT(reportablePercentile(0) == 0);
    EXPECT(reportablePercentile(19) == 0);
    EXPECT(reportablePercentile(20) == 50);
    EXPECT(reportablePercentile(99) == 50);
    EXPECT(reportablePercentile(100) == 90);
    EXPECT(reportablePercentile(999) == 90);
    EXPECT(reportablePercentile(1000) == 99);
    EXPECT(reportablePercentile(10000) == 99.9);

    EXPECT(near(percentile({5, 1, 3, 2, 4}, 50), 3));
    EXPECT(near(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 90), 10));
    EXPECT(near(percentile({1, 2}, 50), 1.5));
    EXPECT(near(median({}), 0));
}

void
testCharset()
{
    EXPECT(validMetricName("attack.pair_finder.next_ms_p50"));
    EXPECT(validMetricName("sim.host_ns_per_l1_access"));
    EXPECT(validMetricName("9lives-ok"));
    EXPECT(!validMetricName(""));
    EXPECT(!validMetricName("_leading"));
    EXPECT(!validMetricName(".leading"));
    EXPECT(!validMetricName("has space"));
    EXPECT(!validMetricName("slash/name"));
    EXPECT(!validMetricName(std::string(65, 'a')));
    EXPECT(validMetricName(std::string(64, 'a')));
    for (const char *name : Counters::names())
        EXPECT(validMetricName(name));
    for (const Workload &w : workloads())
        EXPECT(validMetricName(w.name));

    EXPECT(validUnit("sim_s/s"));
    EXPECT(validUnit("%"));
    EXPECT(validUnit("count"));
    EXPECT(!validUnit(""));
    EXPECT(!validUnit("m s"));
    EXPECT(!validUnit(std::string(17, 'x')));
}

void
testOutputCheck()
{
    const Workload *w = findWorkload("multihart4_trr");
    EXPECT(w != nullptr);
    if (!w)
        return;
    const Recorded *rec = w->recordFor(0);
    EXPECT(rec != nullptr);
    if (!rec)
        return;
    const pth::RunSpec spec = w->spec(0);

    pth::RunResult untraced = pth::Campaign::runOne(spec, 0);
    EXPECT(untraced.ok);
    const Outputs got = outputsOf(untraced);
    EXPECT(mismatches(rec->outputs, got).empty());

    // A perturbed expectation is caught, by name.
    Outputs perturbed = rec->outputs;
    for (auto &field : perturbed)
        if (field.first == "sim_s")
            field.second += "1";
    std::vector<std::string> diff = mismatches(perturbed, got);
    EXPECT(diff.size() == 1 && diff[0] == "sim_s");

    // So are a missing and an unexpected field.
    Outputs shorter(rec->outputs.begin() + 1, rec->outputs.end());
    EXPECT(mismatches(shorter, got).size() == 1);
    EXPECT(mismatches(rec->outputs, shorter).size() == 1);

    // The traced replica makes the stock calls: same outputs, same
    // final machine state as recorded.
    Tracer tracer;
    TracedExtras extras;
    pth::RunResult traced = tracedRun(spec, tracer, extras, /*fingerprint=*/true);
    EXPECT(traced.ok);
    EXPECT(mismatches(got, outputsOf(traced)).empty());
    char fingerprint[20];
    std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                  static_cast<unsigned long long>(extras.fingerprint));
    EXPECT(rec->fingerprint == fingerprint);
    EXPECT(tracer.spans().front().name == "run");
    EXPECT(extras.pairsHammered == untraced.attempts);
}

} // namespace

int
main()
{
    testSelfTime();
    testPercentiles();
    testCharset();
    testOutputCheck();
    if (failures) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench_tests: all checks passed\n");
    return 0;
}
