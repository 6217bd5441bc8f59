#include "dram/flip_model.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "common/random.hh"

namespace pth
{

namespace
{

/**
 * Offsets, as wrapping adds, of the rows an aggressor disturbs, in
 * victim order: Distance2 reaches all four, the other kinds the middle
 * two. A victim below row 0 wraps past the last row and is skipped.
 */
constexpr std::uint64_t kOffsets[] = {~1ull, ~0ull, 1, 2};

} // namespace

const char *
flipModelKindName(FlipModelKind kind)
{
    switch (kind) {
    case FlipModelKind::Ddr3Seeded: return "ddr3";
    case FlipModelKind::Trr: return "trr";
    case FlipModelKind::Distance2: return "distance2";
    case FlipModelKind::Ecc: return "ecc";
    }
    return "unknown";
}

bool
parseFlipModelKind(const char *text, FlipModelKind &out)
{
    auto is = [text](const char *name) {
        return std::strcmp(text, name) == 0;
    };
    if (is("ddr3") || is("seeded") || is("default")) {
        out = FlipModelKind::Ddr3Seeded;
        return true;
    }
    if (is("trr") || is("ddr4") || is("ddr4-trr")) {
        out = FlipModelKind::Trr;
        return true;
    }
    if (is("distance2") || is("d2") || is("half-double")) {
        out = FlipModelKind::Distance2;
        return true;
    }
    if (is("ecc")) {
        out = FlipModelKind::Ecc;
        return true;
    }
    return false;
}

FlipModel::FlipModel(const DisturbanceConfig &config,
                     const DramGeometry &geometry)
    : vuln(config, geometry.rowBytes), rows(geometry.rows()),
      bankActs(geometry.banks)
{
    switch (kind()) {
    case FlipModelKind::Ddr3Seeded:
    case FlipModelKind::Distance2:
        break;
    case FlipModelKind::Trr:
        trackers.resize(geometry.banks);
        refreshed.resize(geometry.banks);
        break;
    case FlipModelKind::Ecc:
        pth_assert(cfg().eccCodewordBytes >= 1 &&
                       cfg().eccCodewordBytes <= geometry.rowBytes,
                   "bad ECC codeword size");
        // Ceil: a partial tail word must not alias the next row's words.
        wordsPerRow = (geometry.rowBytes + cfg().eccCodewordBytes - 1) /
                      cfg().eccCodewordBytes;
        words.resize(geometry.banks);
        break;
    }
}

std::uint64_t
FlipModel::actsInWindow(unsigned bank, std::uint64_t row,
                        std::uint64_t epoch) const
{
    if (row >= rows)
        return 0;
    const auto &acts = bankActs[bank];
    auto it = acts.find(row);
    if (it == acts.end() || it->second.epoch != epoch)
        return 0;
    return it->second.acts;
}

std::uint64_t
FlipModel::neighbourActs(unsigned bank, std::uint64_t row,
                         std::uint64_t epoch) const
{
    // row - 1 wraps for row 0; actsInWindow's range check returns 0.
    return actsInWindow(bank, row - 1, epoch) +
           (row + 1 < rows ? actsInWindow(bank, row + 1, epoch) : 0);
}

std::uint64_t
FlipModel::disturbance(unsigned bank, std::uint64_t victim,
                       std::uint64_t epoch) const
{
    std::uint64_t sum = neighbourActs(bank, victim, epoch);
    switch (kind()) {
    case FlipModelKind::Trr: {
        // Net of the disturbance the last targeted refresh neutralized.
        auto it = refreshed[bank].find(victim);
        if (it == refreshed[bank].end() || it->second.epoch != epoch)
            return sum;
        return sum > it->second.sum ? sum - it->second.sum : 0;
    }
    case FlipModelKind::Distance2: {
        std::uint64_t far =
            actsInWindow(bank, victim - 2, epoch) +
            (victim + 2 < rows ? actsInWindow(bank, victim + 2, epoch) : 0);
        return sum + far / kDistance2Divisor;
    }
    case FlipModelKind::Ddr3Seeded:
    case FlipModelKind::Ecc:
        break;
    }
    return sum;
}

void
FlipModel::onActivate(unsigned bank, std::uint64_t row, std::uint64_t epoch,
                      std::vector<Victim> &victims)
{
    RowState &rs = bankActs[bank][row];
    if (rs.epoch != epoch) {
        // Lazy refresh: the window rolled over, so the charge leaked
        // into the neighbours has been restored.
        rs.epoch = epoch;
        rs.acts = 0;
    }
    ++rs.acts;

    if (kind() == FlipModelKind::Trr && sample(bank, row, epoch)) {
        // Targeted refresh: restore the charge of both neighbours by
        // remembering how much disturbance has been neutralized. Row
        // 0's row - 1 wraps past rows and is skipped.
        for (std::uint64_t victim : {row - 1, row + 1})
            if (victim < rows)
                refreshed[bank][victim] = {epoch,
                                           neighbourActs(bank, victim, epoch)};
    }

    const std::uint64_t r = reach();
    for (std::uint64_t i = 2 - r; i < 2 + r; ++i) {
        std::uint64_t victim = row + kOffsets[i];
        if (victim >= rows || !vuln.rowIsWeak(bank, victim))
            continue;
        victims.push_back({victim, disturbance(bank, victim, epoch)});
    }
}

void
FlipModel::bulkVictims(unsigned /* bank */,
                       const std::vector<std::uint64_t> &aggressors,
                       std::uint64_t actsPerWindow,
                       std::vector<Victim> &victims) const
{
    // Candidate victims: every row within reach of an aggressor, each
    // listed once (a victim sandwiched between two aggressors must not
    // run the threshold check twice per call).
    const std::uint64_t r = reach();
    std::vector<std::uint64_t> candidates;
    for (std::uint64_t row : aggressors) {
        for (std::uint64_t i = 2 - r; i < 2 + r; ++i) {
            std::uint64_t victim = row + kOffsets[i];
            if (victim < rows &&
                std::find(candidates.begin(), candidates.end(), victim) ==
                    candidates.end())
                candidates.push_back(victim);
        }
    }

    const std::size_t first = victims.size();
    for (std::uint64_t victim : candidates) {
        std::uint64_t near = 0;
        std::uint64_t far = 0;
        for (std::uint64_t row : aggressors) {
            if (row + 1 == victim || victim + 1 == row)
                ++near;
            else if (row + 2 == victim || victim + 2 == row)
                ++far;
        }
        std::uint64_t sum = near * actsPerWindow;
        if (kind() == FlipModelKind::Distance2)
            sum += far * actsPerWindow / kDistance2Divisor;
        victims.push_back({victim, sum});
    }
    if (kind() != FlipModelKind::Trr)
        return;

    std::vector<std::uint64_t> distinct;
    for (std::uint64_t row : aggressors)
        if (std::find(distinct.begin(), distinct.end(), row) ==
            distinct.end())
            distinct.push_back(row);

    // With at most trackerEntries distinct aggressors the sampler sees
    // them all (Misra-Gries finds every row whose share exceeds
    // 1/(K+1)), so each aggressor is serviced every refreshThreshold()
    // activations: between two targeted refreshes a victim accumulates
    // at most adjacency * threshold. More aggressors than entries keep
    // every count near zero — no refresh fires and the full
    // disturbance lands, which is why many-sided patterns are needed.
    if (distinct.size() > kTrrTrackerEntries)
        return;
    std::uint64_t cap = refreshThreshold();
    for (std::size_t i = first; i < victims.size(); ++i) {
        Victim &victim = victims[i];
        std::uint64_t adjacency =
            actsPerWindow ? victim.disturbance / actsPerWindow : 0;
        victim.disturbance = std::min(victim.disturbance, adjacency * cap);
    }
}

void
FlipModel::onCellTripped(unsigned bank, std::uint64_t row,
                         const WeakCell &cell, std::vector<Injection> &inject)
{
    if (kind() != FlipModelKind::Ecc) {
        inject.push_back({cell.byteInRow, cell.bitInByte, cell.trueCell});
        return;
    }
    std::uint64_t key =
        row * wordsPerRow + cell.byteInRow / cfg().eccCodewordBytes;
    Codeword &word = words[bank][key];
    if (word.uncorrectable) {
        // The word already carries two errors; correction is gone and
        // every further tripped cell lands directly.
        inject.push_back({cell.byteInRow, cell.bitInByte, cell.trueCell});
        return;
    }
    for (const Injection &latent : word.latent)
        if (latent.byteInRow == cell.byteInRow &&
            latent.bitInByte == cell.bitInByte)
            return;  // still latent from an earlier window
    word.latent.push_back({cell.byteInRow, cell.bitInByte, cell.trueCell});
    if (word.latent.size() < 2)
        return;  // a single flipped cell per word is corrected on read
    inject.insert(inject.end(), word.latent.begin(), word.latent.end());
    word.latent.clear();
    word.uncorrectable = true;
}

std::uint64_t
FlipModel::refreshThreshold() const
{
    return std::max<std::uint64_t>(1, cfg().thresholdMin / 8);
}

bool
FlipModel::sample(unsigned bank, std::uint64_t row, std::uint64_t epoch)
{
    BankTracker &tracker = trackers[bank];
    if (tracker.epoch != epoch) {
        // The refresh window restored every row; start sampling anew.
        tracker.epoch = epoch;
        tracker.entries.clear();
    }

    for (TrackerEntry &entry : tracker.entries) {
        if (entry.row != row)
            continue;
        if (++entry.count >= refreshThreshold()) {
            entry.count = 0;  // the aggressor was serviced
            return true;
        }
        return false;
    }
    if (tracker.entries.size() < kTrrTrackerEntries) {
        tracker.entries.push_back({row, 1});
        return false;
    }

    // Tracker full and the row is not in it: Misra-Gries decrement.
    // Many-sided patterns keep every count near zero, which is
    // exactly the blind spot that defeats real TRR samplers.
    for (std::size_t i = tracker.entries.size(); i-- > 0;) {
        TrackerEntry &entry = tracker.entries[i];
        if (entry.count > 0)
            --entry.count;
        if (entry.count == 0)
            tracker.entries.erase(tracker.entries.begin() +
                                  static_cast<std::ptrdiff_t>(i));
    }
    return false;
}

std::uint64_t
FlipModel::stateHash() const
{
    std::uint64_t h = hashCombine(0xf11b, rows);
    for (std::size_t bank = 0; bank < bankActs.size(); ++bank) {
        // determinism: commutative fold — iteration order of the
        // unordered map cannot affect the sum.
        std::uint64_t fold = 0;
        for (const auto &[row, rs] : bankActs[bank])
            fold += mix64(hashCombine(row, rs.epoch, rs.acts));
        h = hashCombine(h, bank, fold);
    }

    if (kind() == FlipModelKind::Trr) {
        h = hashCombine(h, 0x77f);
        for (const BankTracker &tracker : trackers) {
            h = hashCombine(h, tracker.epoch, tracker.entries.size());
            for (const TrackerEntry &entry : tracker.entries)
                h = hashCombine(h, entry.row, entry.count);
        }
        for (const auto &bank : refreshed) {
            // determinism: commutative fold (see above).
            std::uint64_t fold = 0;
            for (const auto &[row, baseline] : bank)
                fold += mix64(hashCombine(row, baseline.epoch, baseline.sum));
            h = hashCombine(h, fold);
        }
    }

    if (kind() == FlipModelKind::Ecc) {
        h = hashCombine(h, 0xecc);
        for (const auto &bank : words) {
            // determinism: commutative fold (see above).
            std::uint64_t fold = 0;
            for (const auto &[key, word] : bank) {
                std::uint64_t w = hashCombine(key, word.uncorrectable);
                for (const Injection &cell : word.latent)
                    w = hashCombine(w, cell.byteInRow, cell.bitInByte,
                                    cell.trueCell);
                fold += mix64(w);
            }
            h = hashCombine(h, fold);
        }
    }
    return h;
}

} // namespace pth
