#include "host_speed.hh"

#include <array>
#include <chrono>
#include <cstdint>

#include "trace.hh"

namespace perfbench
{

namespace
{

volatile std::uint64_t referenceSink;

std::uint64_t
splitmix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

double
referenceLoopSeconds()
{
    constexpr unsigned sets = 512;
    constexpr unsigned ways = 8;
    static std::array<std::uint64_t, sets * ways> tags;
    static std::array<std::uint32_t, sets * ways> ages;
    tags.fill(~0ull);
    ages.fill(0);

    const auto start = std::chrono::steady_clock::now();
    std::uint64_t state = 5;
    std::uint64_t acc = 0;
    for (std::uint32_t tick = 1; tick <= 2'000'000; ++tick) {
        std::uint64_t mixed = 0;
        for (int round = 0; round < 8; ++round)
            mixed += splitmix(state) >> round;
        const std::uint64_t line = mixed % 20'000;
        const std::size_t base = (line % sets) * ways;
        std::size_t victim = base;
        bool hit = false;
        for (std::size_t w = base; w < base + ways; ++w) {
            if (tags[w] == line) {
                ages[w] = tick;
                hit = true;
                break;
            }
            if (ages[w] < ages[victim])
                victim = w;
        }
        if (!hit) {
            tags[victim] = line;
            ages[victim] = tick;
            acc += line;
        } else {
            acc ^= line;
        }
    }
    referenceSink = acc;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

HostSpeed::HostSpeed() { loops.push_back(referenceLoopSeconds()); }

double
HostSpeed::normalise(double hostSeconds)
{
    const double before = loops.back();
    loops.push_back(referenceLoopSeconds());
    return hostSeconds * referenceLoopNominalS * 2 / (before + loops.back());
}

double
HostSpeed::referenceMedian() const
{
    return median(loops);
}

} // namespace perfbench
