/**
 * @file
 * Lightweight statistics: scalar counters, running averages and
 * fixed-bucket histograms used by experiment harnesses.
 */

#ifndef PTH_COMMON_STATS_HH
#define PTH_COMMON_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace pth
{

/** Running mean / min / max / count over double samples. */
class RunningStat
{
  public:
    /** Record one sample. */
    void sample(double value);

    /** Number of samples recorded. */
    std::uint64_t count() const { return n; }

    /** Mean of the samples (0 when empty). */
    double mean() const;

    /** Smallest sample (0 when empty). */
    double min() const { return n ? lo : 0.0; }

    /** Largest sample (0 when empty). */
    double max() const { return n ? hi : 0.0; }

    /** Sum of all samples. */
    double total() const { return sum; }

    /**
     * Fold another stat in, as if its samples had been recorded here
     * after this one's. Lets independently collected statistics (e.g.
     * per-shard campaign results) combine into one.
     */
    void merge(const RunningStat &other);

    /** Forget all samples. */
    void reset();

  private:
    std::uint64_t n = 0;
    double sum = 0.0;
    double lo = 0.0;
    double hi = 0.0;
};

/** Equal-width bucket histogram over [lo, hi). */
class Histogram
{
  public:
    /**
     * @param lo_ Inclusive lower bound of the tracked range.
     * @param hi_ Exclusive upper bound of the tracked range.
     * @param buckets_ Number of equal-width buckets.
     */
    Histogram(double lo_, double hi_, unsigned buckets_);

    /** Record one sample; out-of-range samples land in edge buckets. */
    void sample(double value);

    /** Count in bucket i. */
    std::uint64_t bucketCount(unsigned i) const { return counts.at(i); }

    /** Number of buckets. */
    unsigned buckets() const { return static_cast<unsigned>(counts.size()); }

    /** Total samples. */
    std::uint64_t total() const { return n; }

    /** Fraction of samples strictly below value. */
    double fractionBelow(double value) const;

    /** Quantile q in [0,1] via bucket interpolation. */
    double quantile(double q) const;

  private:
    double lo;
    double hi;
    double width;
    std::uint64_t n = 0;
    std::vector<std::uint64_t> counts;
    std::vector<double> raw;
};

/** Median of a sample vector (by copy; empty vectors return 0). */
double median(std::vector<double> samples);

/** median() without the copy: reorders samples. */
double medianInPlace(std::vector<double> &samples);

} // namespace pth

#endif // PTH_COMMON_STATS_HH
