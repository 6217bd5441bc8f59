/**
 * @file
 * DRAM device model: per-bank row buffers, access timing, and the
 * rowhammer disturbance engine.
 *
 * Disturbance accounting is delegated to the FlipModel the config
 * selects (see flip_model.hh), held by value: every activation is
 * reported to the model, which answers with the victim rows whose
 * per-window disturbance must be re-checked against their weak cells'
 * thresholds; a tripped cell is injected when the model's flip filter
 * (ECC) lets it through.
 * Flips land directly in the simulated physical memory, so corrupted
 * page-table entries are observed by the page-table walker with no
 * extra plumbing.
 */

#ifndef PTH_DRAM_DRAM_HH
#define PTH_DRAM_DRAM_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/address_mapping.hh"
#include "dram/dram_config.hh"
#include "dram/flip_model.hh"

namespace pth
{

class PhysicalMemory;

/** A bit flip injected by the disturbance model. */
struct FlipEvent
{
    PhysAddr address;      //!< physical byte holding the flipped cell
    unsigned bitInByte;    //!< flipped bit position
    bool wasOne;           //!< value before the flip (true cell: 1 -> 0)
    unsigned bank;         //!< victim bank
    std::uint64_t row;     //!< victim row
};

/** Result of one DRAM access. */
struct DramAccessResult
{
    Cycles latency;   //!< access latency in CPU cycles
    bool rowHit;      //!< served from the open row buffer
    bool activated;   //!< caused a row activation
};

/** The DRAM device. */
class Dram
{
  public:
    /**
     * @param geometry Bank/row geometry.
     * @param timing Access latencies.
     * @param disturbance Rowhammer fault-model parameters; the flip
     *        model's kind is disturbance.flipModel.
     * @param memory Functional backing store receiving bit flips.
     */
    Dram(const DramGeometry &geometry, const DramTiming &timing,
         const DisturbanceConfig &disturbance, PhysicalMemory &memory);

    /**
     * Deep copy rewired to a new backing store (Machine snapshot/fork):
     * row-buffer state, the flip model (weak cells + window
     * accounting), pending flip events, and lifetime counters all
     * carry over. The scratch vectors start empty — they are cleared
     * at the top of every use, so this is not observable.
     */
    Dram(const Dram &other, PhysicalMemory &memory);

    /**
     * Access (read or write) the line containing pa at simulated time
     * now. Updates row buffers and disturbance counters and may inject
     * bit flips.
     */
    DramAccessResult access(PhysAddr pa, Cycles now);

    /**
     * Apply a long hammering run analytically (measure-then-extrapolate
     * fast path). Each aggressor row is activated actsPerWindow times
     * in each of windowCount refresh windows.
     *
     * @param bank Bank holding the aggressor rows.
     * @param aggressorRows Rows being hammered (1 or 2).
     * @param actsPerWindow Activations of each aggressor per window.
     * @param windowCount Number of whole refresh windows hammered.
     * @return Flips injected (at most once per weak cell).
     */
    std::vector<FlipEvent> hammerBulk(
        unsigned bank, const std::vector<std::uint64_t> &aggressorRows,
        std::uint64_t actsPerWindow, std::uint64_t windowCount);

    /** Address mapping in use. */
    const AddressMapping &mapping() const { return map; }

    /** Weak-cell map of the installed flip model. */
    const VulnerabilityModel &vulnerability() const
    {
        return model.vulnerability();
    }

    /** The installed flip model. */
    const FlipModel &flipModel() const { return model; }

    /** Flips injected since the last drain. */
    std::vector<FlipEvent> drainFlips();

    /** Total flips injected over the device lifetime. */
    std::uint64_t totalFlips() const { return flipsInjected; }

    /** Total row activations. */
    std::uint64_t totalActivations() const { return activations; }

    /** Total row-buffer hits. */
    std::uint64_t totalRowHits() const { return rowHits; }

    /** Digest of device state — row buffers, pending flips, lifetime
     * counters — for snapshot audits (Machine::stateFingerprint). */
    std::uint64_t stateHash() const;

  private:
    struct BankState
    {
        bool open = false;
        std::uint64_t openRow = 0;
    };

    /** Record an activation and run the model's disturbance check. */
    void activate(unsigned bank, std::uint64_t row, std::uint64_t epoch);

    /**
     * Flip every not-yet-flipped weak cell of the victim whose
     * threshold is within the given per-window disturbance (subject
     * to the model's flip filter).
     */
    void applyDisturbance(unsigned bank, std::uint64_t victimRow,
                          std::uint64_t disturbance);

    AddressMapping map;
    DramTiming timing;
    FlipModel model;
    PhysicalMemory &mem;

    std::vector<BankState> bankState;
    std::vector<FlipEvent> pendingFlips;
    Cycles refreshWindow;

    /** Per-call scratch, reused to keep the hot path allocation-free. */
    std::vector<FlipModel::Victim> victimScratch;
    std::vector<FlipModel::Injection> injectScratch;

    std::uint64_t activations = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t flipsInjected = 0;
};

} // namespace pth

#endif // PTH_DRAM_DRAM_HH
