/**
 * @file
 * The DRAM flip/threshold model.
 *
 * A FlipModel owns everything the Dram device delegates about
 * disturbance errors: the seeded weak-cell map, the per-refresh-window
 * activation accounting that turns aggressor activations into
 * per-victim disturbance, and the decision of whether a tripped cell
 * actually surfaces as a flip. It is one value type over the closed
 * FlipModelKind set, dispatched by a switch on the configured kind, so
 * non-DDR3 devices are campaign scenarios instead of forks of the
 * device model:
 *  - Ddr3Seeded : the paper's machines; distance-1 disturbance,
 *    byte-identical to the original monolithic Dram under the default
 *    configuration (pinned by tests/test_dram.cpp).
 *  - Trr        : a DDR4-style in-DRAM sampler tracks the top-K
 *    most-activated rows per bank (Misra-Gries) and targeted-refreshes
 *    their neighbours, so double-sided pairs stop flipping while
 *    many-sided patterns (more aggressors than tracker entries) still
 *    land.
 *  - Distance2  : far aggressors contribute attenuated disturbance two
 *    rows away (1/kDistance2Divisor per activation).
 *  - Ecc        : DDR3 accounting behind a single-error-correcting
 *    code; a flip surfaces only when a second cell of the same
 *    codeword trips.
 */

#ifndef PTH_DRAM_FLIP_MODEL_HH
#define PTH_DRAM_FLIP_MODEL_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dram/dram_config.hh"
#include "dram/vulnerability_model.hh"

namespace pth
{

/** Trr: sampler entries per bank (aggressors trackable at once). */
inline constexpr unsigned kTrrTrackerEntries = 4;

/** Distance2: attenuation divisor for aggressors two rows away. */
inline constexpr std::uint64_t kDistance2Divisor = 4;

/** Canonical CLI/report name of a model kind ("ddr3", "trr", ...). */
const char *flipModelKindName(FlipModelKind kind);

/**
 * Parse a model name (canonical names plus the aliases documented in
 * BenchCli --help). Returns false without touching out on failure.
 */
bool parseFlipModelKind(const char *text, FlipModelKind &out);

/** Flip/threshold model driven by Dram; the kind is config.flipModel. */
class FlipModel
{
  public:
    /** A victim row whose accumulated disturbance must be re-checked
     * against its weak cells' thresholds. */
    struct Victim
    {
        std::uint64_t row;
        std::uint64_t disturbance;
    };

    /** One cell to inject into physical memory now. */
    struct Injection
    {
        std::uint64_t byteInRow;
        unsigned bitInByte;
        /** Orientation, re-checked at injection time: a deferred cell
         * whose word was rewritten meanwhile had its charge restored
         * and must not flip against its only possible direction. */
        bool trueCell;
    };

    FlipModel(const DisturbanceConfig &config,
              const DramGeometry &geometry);

    /** The model's kind (folded into campaign spec keys). */
    FlipModelKind kind() const { return cfg().flipModel; }

    /** Canonical name, for reports and logs. */
    const char *name() const { return flipModelKindName(kind()); }

    /** The shared seeded weak-cell map. */
    const VulnerabilityModel &vulnerability() const { return vuln; }

    /**
     * Record one activation of (bank, row) in refresh window epoch and
     * append the victims whose disturbance changed (already screened
     * to weak rows), in order row-2, row-1, row+1, row+2 (Distance2)
     * or row-1, row+1 (the others). A victim's disturbance is the sum
     * of its two neighbours' activations in the current window, net of
     * TRR's last targeted refresh, plus Distance2's attenuated far sum.
     */
    void onActivate(unsigned bank, std::uint64_t row, std::uint64_t epoch,
                    std::vector<Victim> &victims);

    /**
     * Victims of an analytic constant-rate hammer: every aggressor row
     * activated actsPerWindow times per refresh window. Stateless —
     * the bulk path models whole steady-state windows, not the live
     * counters. Victims are deduplicated (first-occurrence order).
     */
    void bulkVictims(unsigned bank,
                     const std::vector<std::uint64_t> &aggressors,
                     std::uint64_t actsPerWindow,
                     std::vector<Victim> &victims) const;

    /**
     * A weak cell crossed its threshold while its stored bit matched
     * the flip orientation. Append the cells to actually flip now: the
     * tripped cell itself, except under ECC, which defers until a
     * codeword holds two tripped cells (single errors are corrected on
     * read).
     */
    void onCellTripped(unsigned bank, std::uint64_t row,
                       const WeakCell &cell,
                       std::vector<Injection> &inject);

    /**
     * Digest of the mutable accounting state — the per-window
     * activation counters plus TRR's trackers and refresh baselines or
     * ECC's latent cells. Folded into Dram::stateHash so equal machine
     * fingerprints also pin future flip behaviour: without it, a
     * half-filled refresh window or a corrected-but-latent ECC error
     * was invisible to snapshot audits.
     */
    std::uint64_t stateHash() const;

  private:
    struct RowState
    {
        std::uint64_t epoch = 0;
        std::uint64_t acts = 0;
    };

    struct TrackerEntry
    {
        std::uint64_t row;
        std::uint64_t count;
    };

    struct BankTracker
    {
        std::uint64_t epoch = 0;
        std::vector<TrackerEntry> entries;
    };

    /** Disturbance already neutralized by TRR's targeted refreshes. */
    struct RefreshBaseline
    {
        std::uint64_t epoch = 0;
        std::uint64_t sum = 0;
    };

    /** Tripped-but-corrected cells of one ECC codeword. */
    struct Codeword
    {
        std::vector<Injection> latent;
        bool uncorrectable = false;
    };

    /** The configured parameters (stored once, inside the cell map). */
    const DisturbanceConfig &cfg() const { return vuln.config(); }

    /** Rows either side of an aggressor that it disturbs. */
    std::uint64_t reach() const
    {
        return kind() == FlipModelKind::Distance2 ? 2 : 1;
    }

    /** Activations of (bank, row) within the given window (0 when the
     * row is out of range or its counter belongs to an older window). */
    std::uint64_t actsInWindow(unsigned bank, std::uint64_t row,
                               std::uint64_t epoch) const;

    /** Sum of both neighbours' activations in the window. */
    std::uint64_t neighbourActs(unsigned bank, std::uint64_t row,
                                std::uint64_t epoch) const;

    /** The victim's disturbance in the window under this kind. */
    std::uint64_t disturbance(unsigned bank, std::uint64_t victim,
                              std::uint64_t epoch) const;

    /** TRR's Misra-Gries sampler step; true when (bank, row) just
     * earned a targeted refresh of its neighbours. */
    bool sample(unsigned bank, std::uint64_t row, std::uint64_t epoch);

    /** TRR's tracked-row activations before its neighbours get a
     * targeted refresh: thresholdMin / 8, which suppresses any
     * pattern the sampler can see regardless of cell thresholds. */
    std::uint64_t refreshThreshold() const;

    VulnerabilityModel vuln;
    std::uint64_t rows;
    std::vector<std::unordered_map<std::uint64_t, RowState>> bankActs;

    /** Trr only, one per bank (empty for the other kinds). */
    std::vector<BankTracker> trackers;
    std::vector<std::unordered_map<std::uint64_t, RefreshBaseline>>
        refreshed;

    /** Ecc only: codewords per row, and each bank's codewords keyed by
     * row * wordsPerRow + word (empty for the other kinds). */
    std::uint64_t wordsPerRow = 0;
    std::vector<std::unordered_map<std::uint64_t, Codeword>> words;
};

} // namespace pth

#endif // PTH_DRAM_FLIP_MODEL_HH
