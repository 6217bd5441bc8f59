/**
 * @file
 * Cache hierarchy configuration.
 */

#ifndef PTH_CACHE_CACHE_CONFIG_HH
#define PTH_CACHE_CACHE_CONFIG_HH

#include <cstdint>

#include "cache/replacement_policy.hh"
#include "common/types.hh"

namespace pth
{

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    std::uint64_t sets = 64;       //!< sets per slice
    unsigned ways = 8;
    unsigned slices = 1;           //!< > 1 only for the LLC
    Cycles latency = 4;            //!< hit latency contribution
    ReplacementKind replacement = ReplacementKind::Lru;

    /** Total capacity in bytes. */
    std::uint64_t capacity() const
    {
        return sets * ways * slices * kLineBytes;
    }

    /** Field-wise equality (campaign snapshot-sharing detection). */
    bool operator==(const CacheConfig &) const = default;
};

/** The three-level hierarchy used by the paper's machines. */
struct CacheHierarchyConfig
{
    CacheConfig l1d{64, 8, 1, 4, ReplacementKind::Lru};
    CacheConfig l2{512, 8, 1, 12, ReplacementKind::Lru};
    CacheConfig llc{2048, 12, 2, 30, ReplacementKind::Lru};

    bool operator==(const CacheHierarchyConfig &) const = default;
};

} // namespace pth

#endif // PTH_CACHE_CACHE_CONFIG_HH
