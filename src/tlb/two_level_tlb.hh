/**
 * @file
 * The two-level dTLB/sTLB pair. Lookups try the L1 dTLB, then the L2
 * sTLB; fills populate both (the sTLB acts as a victim-inclusive second
 * level). A target translation is only "evicted" for the attack's
 * purposes when it is gone from *both* levels — which is why the
 * minimal eviction set in the paper spans both L1 and L2 set mappings.
 */

#ifndef PTH_TLB_TWO_LEVEL_TLB_HH
#define PTH_TLB_TWO_LEVEL_TLB_HH

#include <cstdint>
#include <optional>

#include "common/types.hh"
#include "tlb/tlb.hh"

namespace pth
{

/** Extra cycles for a lookup that reaches the sTLB. */
inline constexpr Cycles kL2TlbHitLatency = 7;

/** Result of a two-level TLB lookup. */
struct TlbLookupResult
{
    bool hit = false;
    Cycles latency = 0;   //!< extra cycles when served by the sTLB
    TlbEntry entry;
};

/** The dTLB + sTLB pair. */
class TwoLevelTlb
{
  public:
    explicit TwoLevelTlb(const TlbConfig &config);

    /** Look up a translation (updates replacement in levels probed). */
    TlbLookupResult lookup(VirtPage vpn, bool huge);

    /** Presence in either level, without state updates. */
    bool contains(VirtPage vpn, bool huge) const;

    /** Fill both levels after a page-table walk, with a translation
     * that lookup() has just missed in both (Tlb::fill). */
    void fill(const TlbEntry &entry);

    /** invlpg semantics: drop from both levels. */
    void invalidate(VirtPage vpn, bool huge);

    /** Full flush (context switch). */
    void flushAll();

    /** Level accessors for tests and the attack's set mapping. */
    Tlb &l1() { return l1Tlb; }
    Tlb &l2() { return l2Tlb; }
    const Tlb &l1() const { return l1Tlb; }
    const Tlb &l2() const { return l2Tlb; }

    /** Total entries across both levels for 4 KiB pages. */
    std::uint64_t totalEntries() const;

    /** Digest of both levels (snapshot audits). */
    std::uint64_t stateHash() const;

  private:
    Tlb l1Tlb;
    Tlb l2Tlb;
};

} // namespace pth

#endif // PTH_TLB_TWO_LEVEL_TLB_HH
