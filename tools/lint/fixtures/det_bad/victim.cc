// Seeded violations for determinism_lint: one per rule, plus a
// two-draw statement after a digit-separated constant.
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <random>
#include <unordered_map>

std::unordered_map<int, int> table;

int
sumTable()
{
    int total = 0;
    for (const auto &item : table)
        total += item.second;
    return total;
}

int
noise()
{
    std::random_device rd;
    return rand() + static_cast<int>(rd());
}

void
stamp()
{
    std::time_t now = time(nullptr);
    std::printf("%s %p\n", ctime(&now), static_cast<void *>(&table));
    std::cout << static_cast<const void *>(&table) << "\n";
}

struct Rng
{
    unsigned long long below(unsigned long long bound);
};

unsigned long long
victimLine(Rng &rng)
{
    return rng.below(64) * 4096 + rng.below(64) * 64;
}

constexpr unsigned long long kVictimBase = 0x2400'0000;

unsigned long long
victimPage(Rng &rng)
{
    return kVictimBase + rng.below(64) * 4096 + rng.below(8) * 64;
}
