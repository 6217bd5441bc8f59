#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace pth
{

void
RunningStat::sample(double value)
{
    if (n == 0) {
        lo = value;
        hi = value;
    } else {
        lo = std::min(lo, value);
        hi = std::max(hi, value);
    }
    sum += value;
    ++n;
}

double
RunningStat::mean() const
{
    return n ? sum / static_cast<double>(n) : 0.0;
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.n == 0)
        return;
    if (n == 0) {
        lo = other.lo;
        hi = other.hi;
    } else {
        lo = std::min(lo, other.lo);
        hi = std::max(hi, other.hi);
    }
    sum += other.sum;
    n += other.n;
}

void
RunningStat::reset()
{
    n = 0;
    sum = 0.0;
    lo = 0.0;
    hi = 0.0;
}

Histogram::Histogram(double lo_, double hi_, unsigned buckets_)
    : lo(lo_), hi(hi_), width((hi_ - lo_) / buckets_), counts(buckets_, 0)
{
    pth_assert(hi_ > lo_ && buckets_ > 0, "bad histogram bounds");
}

void
Histogram::sample(double value)
{
    double idx = (value - lo) / width;
    long i = static_cast<long>(std::floor(idx));
    i = std::clamp<long>(i, 0, static_cast<long>(counts.size()) - 1);
    ++counts[static_cast<std::size_t>(i)];
    ++n;
    raw.push_back(value);
}

double
Histogram::fractionBelow(double value) const
{
    if (!n)
        return 0.0;
    std::uint64_t below = 0;
    for (double v : raw)
        if (v < value)
            ++below;
    return static_cast<double>(below) / static_cast<double>(n);
}

double
Histogram::quantile(double q) const
{
    if (raw.empty())
        return 0.0;
    std::vector<double> sorted(raw);
    std::sort(sorted.begin(), sorted.end());
    double pos = q * static_cast<double>(sorted.size() - 1);
    std::size_t base = static_cast<std::size_t>(pos);
    double frac = pos - static_cast<double>(base);
    if (base + 1 >= sorted.size())
        return sorted.back();
    return sorted[base] * (1.0 - frac) + sorted[base + 1] * frac;
}

double
median(std::vector<double> samples)
{
    return medianInPlace(samples);
}

double
medianInPlace(std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    std::size_t mid = samples.size() / 2;
    std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
    double hi = samples[mid];
    if (samples.size() % 2)
        return hi;
    std::nth_element(samples.begin(), samples.begin() + mid - 1,
                     samples.end());
    return 0.5 * (hi + samples[mid - 1]);
}

} // namespace pth
