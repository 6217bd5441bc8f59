/**
 * @file
 * Bit-manipulation helpers used by address mappings and hash functions.
 */

#ifndef PTH_COMMON_BITOPS_HH
#define PTH_COMMON_BITOPS_HH

#include <cstdint>

namespace pth
{

/** Extract bits [lo, hi] (inclusive) of value. */
constexpr std::uint64_t
bits(std::uint64_t value, unsigned hi, unsigned lo)
{
    return (value >> lo) & ((hi - lo == 63) ? ~0ull
                                            : ((1ull << (hi - lo + 1)) - 1));
}

/** Extract a single bit. */
constexpr std::uint64_t
bit(std::uint64_t value, unsigned pos)
{
    return (value >> pos) & 1;
}

/** Insert bits [lo, hi] of value into base (bits cleared first). */
constexpr std::uint64_t
insertBits(std::uint64_t base, unsigned hi, unsigned lo, std::uint64_t value)
{
    const std::uint64_t mask = ((hi - lo == 63) ? ~0ull
                                                : ((1ull << (hi - lo + 1)) -
                                                   1))
                               << lo;
    return (base & ~mask) | ((value << lo) & mask);
}

/** Parity (XOR reduction) of value & mask. */
constexpr unsigned
maskedParity(std::uint64_t value, std::uint64_t mask)
{
    return __builtin_parityll(value & mask);
}

/** True when value is a power of two (and nonzero). */
constexpr bool
isPow2(std::uint64_t value)
{
    return value && !(value & (value - 1));
}

/** Integer log2 (value must be a power of two). */
constexpr unsigned
log2i(std::uint64_t value)
{
    return 63u - static_cast<unsigned>(__builtin_clzll(value));
}

/** Index of the lowest set bit (value must be nonzero). */
constexpr unsigned
lowestSetBit(std::uint64_t value)
{
    return static_cast<unsigned>(__builtin_ctzll(value));
}

} // namespace pth

#endif // PTH_COMMON_BITOPS_HH
