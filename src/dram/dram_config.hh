/**
 * @file
 * DRAM geometry, timing and disturbance (rowhammer) configuration.
 */

#ifndef PTH_DRAM_DRAM_CONFIG_HH
#define PTH_DRAM_DRAM_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace pth
{

/**
 * Geometry of the simulated memory system.
 *
 * The default mirrors the paper's test machines: 8 GiB DDR3 as
 * 2 DIMMs x 2 ranks x 8 banks = 32 banks, 8 KiB per bank row, so one
 * "row index" spans 32 x 8 KiB = 256 KiB of physical address space —
 * the RowsSize the paper exploits for pair selection.
 */
struct DramGeometry
{
    std::uint64_t sizeBytes = 8ull * 1024 * 1024 * 1024;
    unsigned banks = 32;            //!< total banks across DIMMs/ranks
    std::uint64_t rowBytes = 8192;  //!< bytes per row within one bank

    /** Physical-address bytes covered by one row index across banks. */
    std::uint64_t rowIndexStride() const { return rowBytes * banks; }

    /** Number of row indices. */
    std::uint64_t rows() const { return sizeBytes / rowIndexStride(); }

    /** 4 KiB frames per bank row. */
    std::uint64_t framesPerRow() const { return rowBytes / kPageBytes; }

    /** Field-wise equality (campaign snapshot-sharing detection). */
    bool operator==(const DramGeometry &) const = default;
};

/** DRAM access timing in CPU cycles. */
struct DramTiming
{
    Cycles rowHit = 165;      //!< row-buffer hit (CAS only)
    Cycles rowClosed = 215;   //!< bank precharged: activate + CAS
    Cycles rowConflict = 315; //!< row-buffer conflict: precharge+act+CAS

    bool operator==(const DramTiming &) const = default;
};

/**
 * Which flip/threshold model the DRAM drives (see dram/flip_model.hh).
 *
 * All models share the seeded weak-cell map; they differ in how
 * activations turn into per-victim disturbance and in which tripped
 * cells actually surface as flips.
 */
enum class FlipModelKind
{
    Ddr3Seeded,  //!< the paper's DDR3 machines: distance-1 disturbance
    Trr,         //!< DDR4-style target-row-refresh sampler mitigation
    Distance2,   //!< "half-double"-style: attenuated disturbance at row±2
    Ecc,         //!< DDR3 accounting behind single-error-correcting ECC
};

/**
 * Rowhammer disturbance parameters.
 *
 * A victim row accumulates one disturbance unit per activation of an
 * adjacent row; the counter resets every refresh window. A weak cell
 * flips when the per-window accumulation reaches its threshold and the
 * stored bit matches the cell orientation (true cell: 1 -> 0 only).
 */
struct DisturbanceConfig
{
    /** Refresh window length in CPU cycles (64 ms at the core clock). */
    Cycles refreshWindowCycles = 166'400'000;

    /** Probability that a row contains at least one weak cell. */
    double weakRowProbability = 0.012;

    /** Minimum per-window disturbance needed by the weakest cells. */
    std::uint64_t thresholdMin = 222'000;

    /** Threshold of the strongest weak cells (uniform in [min,max]). */
    std::uint64_t thresholdMax = 310'000;

    /** Fraction of weak cells that are true cells (1 -> 0). */
    double trueCellFraction = 0.55;

    /** Deterministic seed for weak-cell placement. */
    std::uint64_t seed = 0x9a70e5;

    /** Flip model the DRAM instantiates. */
    FlipModelKind flipModel = FlipModelKind::Ddr3Seeded;

    /** Ecc: codeword size; one flipped cell per word is corrected. */
    std::uint64_t eccCodewordBytes = 8;

    bool operator==(const DisturbanceConfig &) const = default;
};

} // namespace pth

#endif // PTH_DRAM_DRAM_CONFIG_HH
