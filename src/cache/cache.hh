/**
 * @file
 * One level of a physically-indexed, physically-tagged set-associative
 * cache. Tracks line presence only (the functional data lives in
 * PhysicalMemory); timing is composed by the hierarchy.
 */

#ifndef PTH_CACHE_CACHE_HH
#define PTH_CACHE_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>

#include "cache/cache_config.hh"
#include "cache/set_assoc.hh"
#include "cache/slice_hash.hh"
#include "common/types.hh"

namespace pth
{

/** A single cache level. Copies carry lines, replacement state and
 * hit/miss counters (Machine snapshot/fork support). The per-access
 * members are inline: all three levels run them on every memory
 * reference. */
class Cache
{
  public:
    /**
     * @param config Geometry / policy for this level.
     * @param name Short name for diagnostics ("l1d", "llc", ...).
     */
    Cache(const CacheConfig &config, std::string name = "cache");

    /**
     * Digest of the observable state — every line (tag + valid) in
     * index order plus the hit/miss counters. Used by
     * Machine::stateFingerprint for snapshot audits.
     */
    std::uint64_t stateHash() const;

    /** True when the line holding pa is present. */
    bool contains(PhysAddr pa) const
    {
        return lines.contains(globalSet(pa), tagOf(pa));
    }

    /**
     * Look up the line; on a hit, update replacement state.
     * @return true on hit.
     */
    bool access(PhysAddr pa)
    {
        if (lines.lookup(globalSet(pa), tagOf(pa)) != SetAssocArray::npos) {
            ++nHits;
            return true;
        }
        ++nMisses;
        return false;
    }

    /**
     * Insert the line holding pa, which access() has just missed,
     * evicting if the set is full (SetAssocArray::fill: the line must
     * be absent).
     * @return The physical line address evicted, if any.
     */
    std::optional<PhysAddr> fill(PhysAddr pa)
    {
        std::optional<std::uint64_t> evicted =
            lines.fill(globalSet(pa), tagOf(pa)).evicted;
        if (!evicted)
            return std::nullopt;
        return *evicted << kLineShift;
    }

    /**
     * Remove the line holding pa if present.
     * @return true when the line was present.
     */
    bool invalidate(PhysAddr pa)
    {
        return lines.invalidate(globalSet(pa), tagOf(pa));
    }

    /** Global set index (slice-major) of pa — exposed for tests. */
    std::uint64_t globalSet(PhysAddr pa) const
    {
        return static_cast<std::uint64_t>(hash.slice(pa)) * cfg.sets +
               setIndex(pa);
    }

    /** Set index within a slice. */
    std::uint64_t setIndex(PhysAddr pa) const
    {
        return (pa >> kLineShift) & (cfg.sets - 1);
    }

    /** Number of lines currently valid. */
    std::uint64_t validLines() const { return lines.validCount(); }

    /** Geometry. */
    const CacheConfig &config() const { return cfg; }

    /** Hit count since construction. */
    std::uint64_t hits() const { return nHits; }

    /** Miss count since construction. */
    std::uint64_t misses() const { return nMisses; }

    /** Drop every line. */
    void flushAll() { lines.flushAll(); }

  private:
    /** The full line address doubles as the tag: exact reconstruction
     * of evicted line addresses is required for inclusive
     * back-invalidation. */
    static std::uint64_t tagOf(PhysAddr pa) { return pa >> kLineShift; }

    CacheConfig cfg;
    std::string label;
    SliceHash hash;
    SetAssocArray lines;  //!< keyed by tag, indexed by globalSet
    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;
};

} // namespace pth

#endif // PTH_CACHE_CACHE_HH
