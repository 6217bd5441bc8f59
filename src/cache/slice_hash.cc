#include "cache/slice_hash.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace pth
{

namespace
{

// Published parity functions (Maurice et al.). o0/o1/o2 are the three
// base functions; CPUs with 2 slices use o0, 4 slices use {o0, o1},
// 8 slices use {o0, o1, o2}.
constexpr std::uint64_t kMaskO0 = 0x1b5f575440ull;
constexpr std::uint64_t kMaskO1 = 0x2eb5faa880ull;
constexpr std::uint64_t kMaskO2 = 0x3cccc93100ull;

} // namespace

SliceHash::SliceHash(unsigned slices) : bitMasks{kMaskO0, kMaskO1, kMaskO2}
{
    pth_assert(isPow2(slices) && slices <= 8,
               "slice count must be 1, 2, 4 or 8");
    nBits = log2i(slices);
}

} // namespace pth
