/**
 * @file
 * TLB configuration for the two-level dTLB/sTLB of the paper's
 * machines: 4-way 64-entry L1 dTLB and 4-way 512-entry L2 sTLB with a
 * linear virtual-page-number set mapping (Gras et al.).
 */

#ifndef PTH_TLB_TLB_CONFIG_HH
#define PTH_TLB_TLB_CONFIG_HH

#include <cstdint>

#include "cache/replacement_policy.hh"
#include "common/types.hh"

namespace pth
{

/** Geometry of one TLB level. */
struct TlbLevelConfig
{
    std::uint64_t sets = 16;
    unsigned ways = 4;
    ReplacementKind replacement = ReplacementKind::TreePlru;
    std::uint64_t seed = 0;   //!< per-machine replacement seed

    /** Field-wise equality (campaign snapshot-sharing detection). */
    bool operator==(const TlbLevelConfig &) const = default;
};

/** Two-level TLB configuration. */
struct TlbConfig
{
    TlbLevelConfig l1d{16, 4, ReplacementKind::TreePlru};
    TlbLevelConfig l2s{128, 4, ReplacementKind::TreePlru};

    bool operator==(const TlbConfig &) const = default;
};

} // namespace pth

#endif // PTH_TLB_TLB_CONFIG_HH
