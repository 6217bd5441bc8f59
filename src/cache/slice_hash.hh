/**
 * @file
 * Intel LLC complex-addressing slice hash.
 *
 * The slice index is the XOR-parity of the physical address with one
 * published mask per slice bit (Maurice et al., "Reverse Engineering
 * Intel Last-Level Cache Complex Addressing Using Performance
 * Counters", RAID 2015). Eviction-set construction must solve exactly
 * this hash, which is why the regular-page pool build is so much slower
 * than the superpage build.
 */

#ifndef PTH_CACHE_SLICE_HASH_HH
#define PTH_CACHE_SLICE_HASH_HH

#include <array>
#include <cstdint>

#include "common/bitops.hh"
#include "common/types.hh"

namespace pth
{

/** Parity-mask slice hash for a power-of-two slice count. */
class SliceHash
{
  public:
    /** @param slices Number of LLC slices (1, 2, 4 or 8). */
    explicit SliceHash(unsigned slices);

    /** Slice index of a physical address. Inline: the LLC hashes every
     * address it looks up or fills; one slice takes no work. */
    unsigned slice(PhysAddr pa) const
    {
        unsigned s = 0;
        for (unsigned b = 0; b < nBits; ++b)
            s |= maskedParity(pa, bitMasks[b]) << b;
        return s;
    }

  private:
    unsigned nBits = 0;  //!< log2(slices): one parity mask per bit
    std::array<std::uint64_t, 3> bitMasks{};
};

} // namespace pth

#endif // PTH_CACHE_SLICE_HASH_HH
