/**
 * @file
 * The benchmark's tracing and statistics helpers: spans with counter
 * snapshots around calls into the simulator's layers, self-time
 * arithmetic, the percentile rule, and the metric-name charset.
 *
 * Spans live in memory and are folded into metrics once a run ends;
 * nothing here writes while a run is being timed.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pth
{
class Machine;
}

namespace perfbench
{

/** Simulated-work counters read through the machine's public accessors,
 * summed over every hart. */
struct Counters
{
    enum Id
    {
        L1dAccesses,
        L2Accesses,
        LlcAccesses,
        LlcMisses,
        TlbLookups,
        Walks,
        PdeCacheStarts,
        DramActivations,
        DramRowHits,
        DramFlips,
        Count
    };

    std::array<std::uint64_t, Count> v{};

    /** Metric name of each counter, indexed by Id. */
    static const std::array<const char *, Count> &names();

    /** Snapshot a machine's counters. */
    static Counters read(pth::Machine &machine);

    Counters operator-(const Counters &other) const;
};

/** One timed call into a layer. */
struct Span
{
    std::string name;
    double start = 0;   //!< host seconds since the tracer's epoch
    double end = 0;
    int parent = -1;    //!< index of the enclosing span, -1 for a root
    int run = 0;        //!< traced run the span belongs to
    Counters work;      //!< counter delta over [start, end]
    bool counted = false;  //!< work was snapshotted for this span

    double duration() const { return end - start; }
};

/** In-memory span recorder. */
class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    Tracer() : epoch(Clock::now()) {}

    /** Host seconds since construction. */
    double now() const;

    /** Start a new traced run; later spans carry its id. */
    void beginRun() { ++runId; }

    /** Open a span under the innermost open one. With a machine, its
     * counters are snapshotted at open and close. */
    int open(std::string name, pth::Machine *machine = nullptr);

    /** Close span id (must be the innermost open span). */
    void close(int id, pth::Machine *machine = nullptr);

    /** Record an already-finished span under the innermost open one. */
    int add(std::string name, double start, double end);

    const std::vector<Span> &spans() const { return all; }

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, std::string name,
              pth::Machine *machine = nullptr)
            : t(tracer), m(machine), id(tracer.open(std::move(name), machine))
        {
        }
        ~Scope() { t.close(id, m); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t;
        pth::Machine *m;
        int id;
    };

  private:
    Clock::time_point epoch;
    std::vector<Span> all;
    std::vector<int> stack;
    std::vector<Counters> openedWith;  //!< parallel to stack
    int runId = 0;
};

/** Each span's duration minus the durations of its direct children. */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Each span's counter delta minus its direct children's deltas. */
std::vector<Counters> selfWork(const std::vector<Span> &spans);

/** Linear-interpolated percentile p (0..100) of unsorted samples; 0 for
 * an empty list. */
double percentile(std::vector<double> samples, double p);

/** Median of samples; 0 for an empty list. */
double median(std::vector<double> samples);

/**
 * The highest of the percentiles 99.9, 99, 90 and 50 that has at least
 * ten of n samples beyond it, or 0 when even the median has fewer.
 */
double reportablePercentile(std::size_t n);

/** True for a name BENCHMARK.json accepts: 1..64 characters of
 * letters, digits, '_', '.', '-', starting with a letter or digit. */
bool validMetricName(const std::string &name);

/** True for a unit BENCHMARK.json accepts: 1..16 characters of letters,
 * digits, '_', '/', '%', '.', '-'. */
bool validUnit(const std::string &unit);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
