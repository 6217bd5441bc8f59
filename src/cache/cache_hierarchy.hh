/**
 * @file
 * Three-level inclusive cache hierarchy (per-hart L1D, shared L2,
 * sliced LLC) in front of DRAM. The LLC is inclusive: evicting an LLC
 * line back-invalidates it from every L1 and the L2, which is why an
 * unprivileged LLC eviction set is enough to force the next PTE fetch
 * to DRAM — the property PThammer depends on (Section III-D of the
 * paper). With more than one hart, each hart owns a private L1 while
 * L2/LLC are shared, so one hart's evictions are visible to every
 * other hart at those levels — the coupling multi-hart interleaved
 * hammering and noisy-neighbor scenarios exercise. Each level counts
 * its own hits and misses. The hierarchy is the LLC's only caller, so
 * the LLC's miss count is the longest_lat_cache.miss event.
 */

#ifndef PTH_CACHE_CACHE_HIERARCHY_HH
#define PTH_CACHE_CACHE_HIERARCHY_HH

#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "cache/cache_config.hh"
#include "common/types.hh"

namespace pth
{

class Dram;

/** Where a memory access was served from. */
enum class ServedBy { L1, L2, Llc, Dram };

/** Timing/result of one memory access through the hierarchy. */
struct MemAccessResult
{
    Cycles latency = 0;
    ServedBy servedBy = ServedBy::L1;

    bool fromDram() const { return servedBy == ServedBy::Dram; }
};

/** The cache hierarchy. */
class CacheHierarchy
{
  public:
    /** @param harts Number of private L1Ds to build (one per hart). */
    CacheHierarchy(const CacheHierarchyConfig &config, Dram &dram,
                   unsigned harts = 1);

    /** Deep copy rewired to a new Dram (Machine snapshot/fork): all
     * levels (every hart's L1) with their replacement state and
     * counters. */
    CacheHierarchy(const CacheHierarchy &other, Dram &dram);

    /**
     * Read or write the line holding pa at simulated time now through
     * hart's private L1, filling the shared levels and that L1 on the
     * way back.
     */
    MemAccessResult access(PhysAddr pa, Cycles now, unsigned hart = 0);

    /**
     * x86 clflush: remove the line from every level on every hart
     * (the instruction is coherent machine-wide).
     * @return Constant instruction latency.
     */
    Cycles clflush(PhysAddr pa);

    /** Level accessors for tests and diagnostics (hart 0's L1). */
    Cache &l1d() { return l1Caches[0]; }
    Cache &l2() { return l2Cache; }
    Cache &llc() { return llcCache; }
    const Cache &l1d() const { return l1Caches[0]; }
    const Cache &l2() const { return l2Cache; }
    const Cache &llc() const { return llcCache; }

    /** A specific hart's private L1. */
    Cache &l1d(unsigned hart) { return l1Caches.at(hart); }
    const Cache &l1d(unsigned hart) const { return l1Caches.at(hart); }

    /** Number of private L1s (the machine's hart count). */
    unsigned hartCount() const
    {
        return static_cast<unsigned>(l1Caches.size());
    }

    /** LLC misses observed (the longest_lat_cache.miss PMC event). */
    std::uint64_t llcMisses() const { return llcCache.misses(); }

    /** Drop all cached lines (context-switch-free full flush). */
    void flushAll();

    /** Digest of all levels, the LLC's miss count first (snapshot
     * audits). Extra harts' L1s are folded after the single-hart
     * digest, so a harts=1 hierarchy hashes byte-identically to the
     * pre-multi-hart code. */
    std::uint64_t stateHash() const;

  private:
    std::vector<Cache> l1Caches;
    Cache l2Cache;
    Cache llcCache;
    Dram &dram;
};

} // namespace pth

#endif // PTH_CACHE_CACHE_HIERARCHY_HH
