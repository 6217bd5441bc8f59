#include "trace.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "cpu/machine.hh"

namespace perfbench
{

const std::array<const char *, Counters::Count> &
Counters::names()
{
    static const std::array<const char *, Count> n = {
        "cache.l1d.accesses", "cache.l2.accesses", "cache.llc.accesses",
        "cache.llc.misses",   "mmu.tlb_lookups",   "mmu.walks",
        "paging.pde_cache_starts", "dram.activations", "dram.row_hits",
        "dram.flips"};
    return n;
}

Counters
Counters::read(pth::Machine &m)
{
    Counters c;
    pth::CacheHierarchy &caches = m.caches();
    for (unsigned h = 0; h < m.hartCount(); ++h) {
        const pth::Cache &l1 = caches.l1d(h);
        c.v[L1dAccesses] += l1.hits() + l1.misses();
        pth::Mmu &mmu = m.mmu(h);
        c.v[TlbLookups] += mmu.counters().tlbLookups;
        c.v[Walks] += mmu.walker().walks();
        c.v[PdeCacheStarts] += mmu.walker().pdeCacheStarts();
    }
    c.v[L2Accesses] = caches.l2().hits() + caches.l2().misses();
    c.v[LlcAccesses] = caches.llc().hits() + caches.llc().misses();
    c.v[LlcMisses] = caches.llc().misses();
    c.v[DramActivations] = m.dram().totalActivations();
    c.v[DramRowHits] = m.dram().totalRowHits();
    c.v[DramFlips] = m.dram().totalFlips();
    return c;
}

Counters
Counters::operator-(const Counters &other) const
{
    Counters d;
    for (std::size_t i = 0; i < v.size(); ++i)
        d.v[i] = v[i] - other.v[i];
    return d;
}

double
Tracer::now() const
{
    return std::chrono::duration<double>(Clock::now() - epoch).count();
}

int
Tracer::open(std::string name, pth::Machine *machine)
{
    Span span;
    span.name = std::move(name);
    span.parent = stack.empty() ? -1 : stack.back();
    span.run = runId;
    span.counted = machine != nullptr;
    openedWith.push_back(machine ? Counters::read(*machine) : Counters{});
    span.start = now();
    all.push_back(std::move(span));
    const int id = static_cast<int>(all.size()) - 1;
    stack.push_back(id);
    return id;
}

void
Tracer::close(int id, pth::Machine *machine)
{
    const double end = now();
    if (stack.empty() || stack.back() != id)
        throw std::logic_error("tracer: spans closed out of order");
    Span &span = all[static_cast<std::size_t>(id)];
    span.end = end;
    if (span.counted && machine)
        span.work = Counters::read(*machine) - openedWith.back();
    else
        span.counted = false;
    stack.pop_back();
    openedWith.pop_back();
}

int
Tracer::add(std::string name, double start, double end)
{
    Span span;
    span.name = std::move(name);
    span.parent = stack.empty() ? -1 : stack.back();
    span.run = runId;
    span.start = start;
    span.end = end;
    all.push_back(std::move(span));
    return static_cast<int>(all.size()) - 1;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].duration();
    for (const Span &span : spans)
        if (span.parent >= 0)
            self[static_cast<std::size_t>(span.parent)] -= span.duration();
    return self;
}

std::vector<Counters>
selfWork(const std::vector<Span> &spans)
{
    std::vector<Counters> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].work;
    for (const Span &span : spans) {
        if (span.parent < 0 || !span.counted)
            continue;
        const auto p = static_cast<std::size_t>(span.parent);
        if (spans[p].counted)
            self[p] = self[p] - span.work;
    }
    return self;
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const double rank =
        p / 100.0 * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50);
}

double
reportablePercentile(std::size_t n)
{
    for (double p : {99.9, 99.0, 90.0, 50.0})
        if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
            return p;
    return 0;
}

namespace
{

bool
charsetOk(const std::string &s, std::size_t maxLen, const char *extra)
{
    if (s.empty() || s.size() > maxLen)
        return false;
    for (char c : s) {
        const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                           (c >= '0' && c <= '9');
        bool allowed = alnum;
        for (const char *e = extra; !allowed && *e; ++e)
            allowed = c == *e;
        if (!allowed)
            return false;
    }
    return true;
}

} // namespace

bool
validMetricName(const std::string &name)
{
    if (!charsetOk(name, 64, "_.-"))
        return false;
    const char c = name[0];
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
}

bool
validUnit(const std::string &unit)
{
    return charsetOk(unit, 16, "_/%.-");
}

} // namespace perfbench
