// Seeded violation: `gauge` is mutated at runtime but missing from
// both the copy constructor and stateHash(). The audit must flag it
// for both aspects. `label` is allowlisted for hash only, so its
// missing copy reference must be flagged too. `spare` is missing from
// the copy constructor and sits between two digit-separated
// initializers, which a lexer reading the separator as a quote hides.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

class Widget {
public:
    Widget() = default;
    Widget(const Widget &other);
    std::uint64_t stateHash() const;

private:
    std::vector<std::uint64_t> slots;
    std::uint64_t cursor = 0;
    std::uint64_t gauge = 0;
    std::uint64_t budget = 1'000;
    std::uint64_t spare = 0;
    std::uint64_t ceiling = 2'000;
    std::string label;
};
