/**
 * @file
 * Attacker-side configuration: spray size, sampling and selection
 * counts and the hammer budgets, plus the fixed address-space layout.
 */

#ifndef PTH_ATTACK_ATTACK_CONFIG_HH
#define PTH_ATTACK_ATTACK_CONFIG_HH

#include <cstdint>
#include <cstring>

#include "common/types.hh"

namespace pth
{

/** How LlcEvictionPool reduces candidate sets to eviction sets. */
enum class PoolBuildAlgorithm
{
    /** The paper's baseline: drop one candidate per conflict test,
     * O(N^2) tests per class. */
    SingleElimination,

    /** Binary-split group testing (Vila et al. style): discard whole
     * chunks of the working set per conflict test, O(ways * N)
     * accesses per class, plus a batched one-pass membership
     * classification of the remaining candidates. */
    GroupTesting,
};

/** Pool-construction execution knobs. */
struct PoolBuildOptions
{
    PoolBuildAlgorithm algorithm = PoolBuildAlgorithm::GroupTesting;

    /** Worker threads for per-class extraction (group-testing path
     * only): 1 = serial, 0 = one per hardware thread. The built pool
     * is byte-identical regardless of the worker count. */
    unsigned threads = 1;
};

/** Stable CLI/report name of a pool-build algorithm. */
inline const char *
poolBuildAlgorithmName(PoolBuildAlgorithm algorithm)
{
    return algorithm == PoolBuildAlgorithm::SingleElimination
               ? "single-elimination"
               : "group-testing";
}

/** Parse a pool-build algorithm name ("single[-elimination]" or
 * "group[-testing]"). @return false on an unknown name. */
inline bool
parsePoolBuildAlgorithm(const char *text, PoolBuildAlgorithm &out)
{
    if (!std::strcmp(text, "single-elimination") ||
        !std::strcmp(text, "single")) {
        out = PoolBuildAlgorithm::SingleElimination;
        return true;
    }
    if (!std::strcmp(text, "group-testing") ||
        !std::strcmp(text, "group")) {
        out = PoolBuildAlgorithm::GroupTesting;
        return true;
    }
    return false;
}

/** PThammer configuration. */
struct AttackConfig
{
    /** Use 2 MiB superpages for the LLC eviction buffer (Section IV:
     * makes pool preparation dramatically faster). */
    bool superpages = false;

    /** Bytes of Level-1 page tables to spray (paper: 2 GiB of 8 GiB). */
    std::uint64_t sprayBytes = 2ull * 1024 * 1024 * 1024;

    /** Algorithm 2 profiling repetitions (paper-scale accounting). */
    unsigned llcSelectCount = 32000;

    /** Algorithm 2 repetitions actually simulated in detail; the
     * remaining (llcSelectCount - this) are charged analytically. */
    unsigned llcSelectDetailedCount = 64;

    /** Superpage pool build: classes run in detail (0 = all 2048). */
    unsigned superpageSampleClasses = 96;

    /** Regular pool build: classes / groups-per-class run in detail. */
    unsigned regularSampleClasses = 1;
    unsigned regularSampleGroups = 4;

    /** Pool-construction algorithm and extraction worker count. */
    PoolBuildOptions poolBuild;

    /** Extra pages beyond the discovered minimal TLB set size. */
    unsigned tlbSetSizeMargin = 0;

    /** Double-sided hammer iterations per attempt (paper-scale). */
    std::uint64_t hammerIterations = 1'000'000;

    /** Iterations simulated in full micro-architectural detail before
     * the analytic extrapolation takes over. */
    unsigned hammerWarmupIterations = 48;

    /** Give up after this many hammering attempts. */
    unsigned maxAttempts = 3000;

    /** Simulated-time budget for the hammering phase (seconds). */
    double hammerBudgetSeconds = 7200;

    /** Measurement noise: probability of a kTimingNoiseCycles latency
     * spike (interrupts etc.), the source of Algorithm 2's false
     * positives. */
    double timingNoiseProbability = 0.015;

    /** CATT counter-measure: fraction of the kernel zone the attacker
     * exhausts before spraying so L1PTs land near the user boundary
     * (Cheng et al.'s technique, Section IV-G1). */
    double exhaustKernelFraction = 0.0;

    /** Processes to spawn for the CTA cred-spray (Section IV-G3). */
    unsigned credSprayProcesses = 0;

    /** Multi-hart runs: harts reserved for co-tenant (noisy-neighbor)
     * victim traffic instead of hammering. Clamped so at least one
     * hart always hammers. */
    unsigned victimHarts = 0;

    std::uint64_t seed = 0xa77acc;
};

/** The attacker's virtual address-space layout: one region per use,
 * 1 TiB apart, so no two ever overlap. */
inline constexpr VirtAddr kSprayBase = 0x0100'0000'0000ull;
inline constexpr VirtAddr kTlbPoolBase = 0x0200'0000'0000ull;
inline constexpr VirtAddr kLlcBufferBase = 0x0300'0000'0000ull;
inline constexpr VirtAddr kScratchBase = 0x0400'0000'0000ull;
/** Victim harts' private working sets (each its own process). */
inline constexpr VirtAddr kUserDataBase = 0x7f00'0000'0000ull;

} // namespace pth

#endif // PTH_ATTACK_ATTACK_CONFIG_HH
