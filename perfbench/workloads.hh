/**
 * @file
 * The benchmark's workloads, their recorded simulated outputs, the
 * output check, and the run bodies the benchmark hands to
 * Campaign::runOne: a setup-only body, traced replicas of the stock
 * strategy dispatch, and the isolated layer probes.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/campaign.hh"
#include "trace.hh"

namespace perfbench
{

/** A run's simulated outputs as named, exactly formatted fields. */
using Outputs = std::vector<std::pair<std::string, std::string>>;

/** Simulated outputs recorded for one workload seed. */
struct Recorded
{
    std::uint64_t seed = 0;
    Outputs outputs;  //!< the traced run's, equal to the stock run's
    std::string fingerprint;  //!< final Machine::stateFingerprint, %016llx
};

/** One named benchmark workload. */
struct Workload
{
    const char *name;  //!< as listed in BENCHMARK.json, with its reason
    pth::RunSpec (*spec)(std::uint64_t seed);
    Recorded recorded;

    /** The recorded outputs for seed, or null when none exist. */
    const Recorded *recordFor(std::uint64_t seed) const;
};

/** Every workload, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

/** The workload called name, or null. */
const Workload *findWorkload(const std::string &name);

/** The simulated outputs of a run, formatted exactly (doubles with 17
 * significant digits, so equal strings mean bit-equal values). */
Outputs outputsOf(const pth::RunResult &result);

/** Names of the fields where got differs from expected; a field missing
 * from either side counts as a difference. */
std::vector<std::string> mismatches(const Outputs &expected,
                                    const Outputs &got);

/** Setup-only body: build, then PThammerAttack::prepare(); the run's
 * report carries the preparation fields. */
void setupBody(pth::Machine &machine, const pth::AttackConfig &attack,
               pth::RunResult &result);

/** What a traced run measured besides its spans. */
struct TracedExtras
{
    std::uint64_t fingerprint = 0;  //!< 0 when not computed
    Counters total;                 //!< machine counters at the run's end
    std::uint64_t pairsTried = 0;
    std::uint64_t pairsAccepted = 0;
    std::uint64_t pairsHammered = 0;
    std::uint64_t conflictTests = 0;
    std::uint64_t lineAccesses = 0;
};

/**
 * One traced run of spec through Campaign::runOne. The body replays
 * the stock strategy dispatch (PThammerAttack::prepare/run,
 * runImplicit, runMultiHart) call for call, with a span around each
 * call into a layer. The root span is "run"; "harness.boot" covers
 * runOne up to the body and "harness.teardown" runOne after it. With
 * fingerprint set, the body ends by hashing the final machine state in
 * a "trace.fingerprint" span, which is benchmark work, not the
 * program's: seconds on a T420 machine.
 */
pth::RunResult tracedRun(const pth::RunSpec &spec, Tracer &tracer,
                         TracedExtras &extras, bool fingerprint);

/** Isolated per-call costs of single layers, on a booted and prepared
 * machine of the workload. Name -> value in the metric's unit. */
std::vector<std::pair<std::string, double>>
runProbes(const pth::RunSpec &spec, double secondsPerProbe);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
