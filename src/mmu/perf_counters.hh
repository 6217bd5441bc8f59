/**
 * @file
 * The performance-monitoring events the evaluation-only kernel module
 * reads, mirroring the two the paper programs:
 * dtlb_load_misses.miss_causes_a_walk and longest_lat_cache.miss.
 * Each is counted once, where it happens: walks in PageTableWalker,
 * LLC misses in the LLC's Cache. The MMU's own block keeps only the
 * translation-request count.
 */

#ifndef PTH_MMU_PERF_COUNTERS_HH
#define PTH_MMU_PERF_COUNTERS_HH

#include <cstdint>

namespace pth
{

/** PMC event identifiers (KernelModule::readPmc). */
enum class PmcEvent
{
    DtlbLoadMissesWalk,   //!< dtlb_load_misses.miss_causes_a_walk
    LongestLatCacheMiss,  //!< longest_lat_cache.miss (LLC misses)
};

/** The MMU's counter block. */
struct PerfCounters
{
    std::uint64_t tlbLookups = 0;  //!< translation requests
};

} // namespace pth

#endif // PTH_MMU_PERF_COUNTERS_HH
