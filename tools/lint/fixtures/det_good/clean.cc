// Clean fixture: the unordered iteration is annotated (commutative
// fold), and words about rand or time inside comments/strings must
// not trip the lint.
#include <cstdint>
#include <unordered_map>

std::unordered_map<std::uint64_t, std::uint64_t> table;

std::uint64_t
foldTable()
{
    std::uint64_t total = 0;
    // determinism: commutative fold — iteration order of the
    // unordered map cannot affect the sum.
    for (const auto &item : table)
        total += item.first ^ item.second;
    const char *doc = "rand() and time() are banned outside strings";
    return total + doc[0];
}

struct Rng
{
    std::uint64_t below(std::uint64_t bound);
};

std::uint64_t
victimLine(Rng &rng)
{
    // One draw per statement: the statements fix the order.
    const std::uint64_t line = rng.below(64);
    const std::uint64_t page = rng.below(64);
    // determinism: && evaluates its left draw first.
    const bool both = rng.below(2) && rng.below(2);
    return page * 4096 + line * 64 + both;
}
