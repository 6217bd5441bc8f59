#include "cpu/interleaver.hh"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <string_view>

#include "common/logging.hh"

namespace pth
{

const char *
interleaveModeName(InterleaveMode mode)
{
    return mode == InterleaveMode::RoundRobin ? "round-robin" : "seeded";
}

bool
parseInterleaveMode(const char *text, InterleaveMode &mode,
                    std::uint64_t &seed)
{
    const char *end = text + std::strlen(text);
    const char *colon = std::find(text, end, ':');
    const std::string_view name(text, colon - text);
    InterleaveMode parsed = InterleaveMode::RoundRobin;
    if (name == "seeded" || name == "random")
        parsed = InterleaveMode::Seeded;
    else if (name != "round-robin" && name != "rr")
        return false;
    std::uint64_t value = 0;
    if (colon != end) {
        const auto [last, ec] = std::from_chars(colon + 1, end, value);
        if (ec != std::errc() || last != end)
            return false;
    }
    mode = parsed;
    seed = value;
    return true;
}

Interleaver::Interleaver(InterleaveMode mode_, std::uint64_t seed,
                         unsigned harts)
    : mode(mode_), rng(hashCombine(0x171e41, seed))
{
    pth_assert(harts >= 1, "interleaver needs at least one hart");
    active.reserve(harts);
    for (unsigned h = 0; h < harts; ++h)
        active.push_back(h);
}

unsigned
Interleaver::next()
{
    pth_assert(!active.empty(), "no active hart to schedule");
    if (mode == InterleaveMode::Seeded)
        cursor = static_cast<std::size_t>(rng.below(active.size()));
    else if (cursor >= active.size())
        cursor = 0;
    unsigned hart = active[cursor];
    if (mode == InterleaveMode::RoundRobin)
        ++cursor;
    return hart;
}

void
Interleaver::finish(unsigned hart)
{
    for (std::size_t i = 0; i < active.size(); ++i) {
        if (active[i] != hart)
            continue;
        active.erase(active.begin() +
                     static_cast<std::ptrdiff_t>(i));
        if (i < cursor)
            --cursor;
        return;
    }
}

} // namespace pth
