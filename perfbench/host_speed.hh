/**
 * @file
 * Host-speed calibration for the end-to-end timings.
 *
 * The host's CPU speed wanders by tens of percent over minutes, in
 * bursts and in slow drifts, while the simulated work of a run repeats
 * exactly. A fixed reference loop, timed next to every timed call, slows
 * down with the host: dividing a call's host seconds by the loop's
 * seconds measured around it gives a cost that no longer depends on the
 * host's speed of the moment. The loop is the benchmark's own code, so a
 * faster simulator still lowers the ratio. A pointer-chasing loop did not
 * track the host (its DRAM latency does not follow the CPU's speed); this
 * cache-resident loop did, to within 2-3% under bursts and induced load.
 */

#ifndef PERFBENCH_HOST_SPEED_HH
#define PERFBENCH_HOST_SPEED_HH

#include <vector>

namespace perfbench
{

/**
 * Host seconds of one reference loop on the host the benchmark was
 * tuned on, a quiet 4-vCPU Xeon VM. Normalised timings are seconds of
 * that host.
 */
constexpr double referenceLoopNominalS = 0.043;

/**
 * Run the reference loop once and return its host seconds: a fixed,
 * allocation-free mix of integer hashing and 8-way LRU lookups in a
 * 48 KiB table, the kind of work a cache model does.
 */
double referenceLoopSeconds();

/** A sequence of timed calls, each bracketed by reference loops. */
class HostSpeed
{
  public:
    /** Time the reference loop once, before the first call. */
    HostSpeed();

    /**
     * Time the reference loop again, after a call that took hostSeconds,
     * and return that call's seconds on the nominal host:
     * hostSeconds * nominal / mean(loop before, loop after).
     */
    double normalise(double hostSeconds);

    /** Median host seconds of the reference loops so far. */
    double referenceMedian() const;

  private:
    std::vector<double> loops;
};

} // namespace perfbench

#endif // PERFBENCH_HOST_SPEED_HH
