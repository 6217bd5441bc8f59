#include "dram/dram.hh"

#include "common/logging.hh"
#include "common/random.hh"
#include "mem/physical_memory.hh"

namespace pth
{

Dram::Dram(const DramGeometry &geometry, const DramTiming &timing_,
           const DisturbanceConfig &disturbance, PhysicalMemory &memory)
    : map(geometry), timing(timing_),
      model(disturbance, geometry), mem(memory),
      bankState(geometry.banks), refreshWindow(disturbance.refreshWindowCycles)
{
    pth_assert(refreshWindow > 0, "refresh window must be nonzero");
}

Dram::Dram(const Dram &other, PhysicalMemory &memory)
    : map(other.map), timing(other.timing), model(other.model),
      mem(memory), bankState(other.bankState),
      pendingFlips(other.pendingFlips), refreshWindow(other.refreshWindow),
      activations(other.activations), rowHits(other.rowHits),
      flipsInjected(other.flipsInjected)
{
}

std::uint64_t
Dram::stateHash() const
{
    std::uint64_t h = hashCombine(0xd7a3, activations, rowHits);
    h = hashCombine(h, flipsInjected, model.stateHash());
    for (const BankState &bank : bankState)
        h = hashCombine(h, bank.open, bank.openRow);
    for (const FlipEvent &flip : pendingFlips) {
        h = hashCombine(h, flip.address, flip.bitInByte, flip.wasOne);
        h = hashCombine(h, flip.bank, flip.row);
    }
    return h;
}

DramAccessResult
Dram::access(PhysAddr pa, Cycles now)
{
    DramLocation loc = map.decompose(pa);
    BankState &bank = bankState[loc.bank];
    std::uint64_t epoch = now / refreshWindow;

    DramAccessResult result{};
    if (bank.open && bank.openRow == loc.row) {
        result.latency = timing.rowHit;
        result.rowHit = true;
        ++rowHits;
        return result;
    }

    result.latency = bank.open ? timing.rowConflict : timing.rowClosed;
    result.activated = true;
    bank.open = true;
    bank.openRow = loc.row;
    activate(loc.bank, loc.row, epoch);
    return result;
}

void
Dram::activate(unsigned bank, std::uint64_t row, std::uint64_t epoch)
{
    ++activations;
    victimScratch.clear();
    model.onActivate(bank, row, epoch, victimScratch);
    for (const FlipModel::Victim &victim : victimScratch)
        applyDisturbance(bank, victim.row, victim.disturbance);
}

void
Dram::applyDisturbance(unsigned bank, std::uint64_t victimRow,
                       std::uint64_t disturbance)
{
    for (const WeakCell &cell :
         model.vulnerability().weakCells(bank, victimRow)) {
        if (cell.threshold > disturbance)
            continue;
        DramLocation loc{bank, victimRow, cell.byteInRow};
        PhysAddr pa = map.compose(loc);
        bool storedOne = (mem.read8(pa) >> cell.bitInByte) & 1;
        // A true cell can only discharge (1 -> 0); an anti cell can
        // only charge (0 -> 1). A cell whose stored bit already matches
        // the flip destination cannot flip (again).
        if (storedOne != cell.trueCell)
            continue;
        injectScratch.clear();
        model.onCellTripped(bank, victimRow, cell, injectScratch);
        for (const FlipModel::Injection &inject : injectScratch) {
            PhysAddr target =
                map.compose({bank, victimRow, inject.byteInRow});
            bool wasOne = (mem.read8(target) >> inject.bitInByte) & 1;
            // A deferred (ECC-latent) cell whose word was rewritten
            // meanwhile had its charge restored; it can no longer
            // flip against its only possible direction.
            if (wasOne != inject.trueCell)
                continue;
            mem.flipBit(target, inject.bitInByte);
            pendingFlips.push_back(
                {target, inject.bitInByte, wasOne, bank, victimRow});
            ++flipsInjected;
        }
    }
}

std::vector<FlipEvent>
Dram::hammerBulk(unsigned bank,
                 const std::vector<std::uint64_t> &aggressorRows,
                 std::uint64_t actsPerWindow, std::uint64_t windowCount)
{
    pth_assert(bank < map.banks(), "bank out of range");
    std::vector<FlipEvent> flips;
    if (windowCount == 0 || actsPerWindow == 0)
        return flips;

    victimScratch.clear();
    model.bulkVictims(bank, aggressorRows, actsPerWindow, victimScratch);

    std::size_t before = pendingFlips.size();
    // The per-window disturbance is constant across windows, so a
    // cell either flips in the first whole window or never.
    for (const FlipModel::Victim &victim : victimScratch)
        applyDisturbance(bank, victim.row, victim.disturbance);
    flips.assign(pendingFlips.begin() +
                     static_cast<std::ptrdiff_t>(before),
                 pendingFlips.end());
    return flips;
}

std::vector<FlipEvent>
Dram::drainFlips()
{
    std::vector<FlipEvent> out;
    out.swap(pendingFlips);
    return out;
}

} // namespace pth
