/**
 * @file
 * One level of a set-associative TLB.
 *
 * Indexed linearly by virtual page number (the mapping Gras et al.
 * reverse-engineered for the paper's SandyBridge/IvyBridge parts).
 * The paper presets use aging replacement — deliberately not true LRU,
 * which is why minimal eviction sets exceed the associativity
 * (Figure 3).
 */

#ifndef PTH_TLB_TLB_HH
#define PTH_TLB_TLB_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/set_assoc.hh"
#include "common/types.hh"
#include "tlb/tlb_config.hh"

namespace pth
{

/** A cached address translation. */
struct TlbEntry
{
    VirtPage vpn = 0;      //!< virtual page number (va >> pageShift)
    PhysFrame pfn = 0;     //!< physical frame number
    bool huge = false;     //!< 2 MiB translation
};

/** One TLB level. Copies carry every slot and the replacement state
 * (Machine snapshot/fork support). The per-translation members are
 * inline: every translate() probes both levels. */
class Tlb
{
  public:
    explicit Tlb(const TlbLevelConfig &config);

    /** Digest of every slot in index order (snapshot audits). */
    std::uint64_t stateHash() const;

    /**
     * Look up a translation.
     * @param vpn Virtual page number.
     * @param huge Whether the lookup is for a 2 MiB page.
     */
    std::optional<TlbEntry> lookup(VirtPage vpn, bool huge)
    {
        std::uint64_t slot = slots.lookup(setOf(vpn), keyOf(vpn, huge));
        if (slot == SetAssocArray::npos)
            return std::nullopt;
        return TlbEntry{vpn, pfns[slot], huge};
    }

    /** Presence check without touching replacement state. */
    bool contains(VirtPage vpn, bool huge) const
    {
        return slots.contains(setOf(vpn), keyOf(vpn, huge));
    }

    /** Insert (possibly evicting) a translation, or refresh it in
     * place when already present. */
    void insert(const TlbEntry &entry)
    {
        std::uint64_t key = keyOf(entry.vpn, entry.huge);
        pfns[slots.place(setOf(entry.vpn), key).slot] = entry.pfn;
    }

    /** Insert (possibly evicting) a translation that lookup() has just
     * missed (SetAssocArray::fill: it must be absent). */
    void fill(const TlbEntry &entry)
    {
        std::uint64_t key = keyOf(entry.vpn, entry.huge);
        pfns[slots.fill(setOf(entry.vpn), key).slot] = entry.pfn;
    }

    /** Invalidate one translation (invlpg). */
    void invalidate(VirtPage vpn, bool huge)
    {
        slots.invalidate(setOf(vpn), keyOf(vpn, huge));
    }

    /** Invalidate everything (CR3 write without PCID). */
    void flushAll() { slots.flushAll(); }

    /** Linear set index of a vpn — exposed so the attack can build
     * congruent eviction sets exactly as Gras et al. do. */
    std::uint64_t setOf(VirtPage vpn) const { return vpn & (cfg.sets - 1); }

    /** Geometry. */
    const TlbLevelConfig &config() const { return cfg; }

    /** Number of valid entries. */
    std::uint64_t validEntries() const { return slots.validCount(); }

  private:
    /** A translation's key in the way array. */
    static std::uint64_t keyOf(VirtPage vpn, bool huge)
    {
        return vpn << 1 | (huge ? 1 : 0);
    }

    TlbLevelConfig cfg;
    SetAssocArray slots;          //!< keyed by keyOf(vpn, huge)
    std::vector<PhysFrame> pfns;  //!< beside slots, same slot order
};

} // namespace pth

#endif // PTH_TLB_TLB_HH
