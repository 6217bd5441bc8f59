#include "attack/multi_hammer.hh"

#include <algorithm>
#include <map>
#include <span>

#include "cpu/machine.hh"

namespace pth
{

MultiHartHammer::MultiHartHammer(Machine &machine,
                                 const AttackConfig &config,
                                 InterleaveMode mode,
                                 std::uint64_t interleaveSeed)
    : m(machine), cfg(config), engine(machine, config, mode, interleaveSeed),
      victims(std::min(config.victimHarts, machine.hartCount() - 1))
{
}

std::vector<HammerPair>
MultiHartHammer::selectPairs(PairFinder &finder, unsigned maxPairs)
{
    // Keep drawing until one bank can seat the whole batch: many
    // aggressor rows hammered together in one bank are what overwhelm
    // a TRR-style tracker, mirroring bank-synchronized multi-thread
    // hammering. Every draw is charged its full selection cost, so
    // the oversampling cap bounds the simulated-time spend.
    const unsigned oversample = 16;
    std::vector<HammerPair> drawn;
    std::map<unsigned, std::vector<std::size_t>> byBank;
    std::size_t bestBank = 0;
    for (unsigned i = 0; i < maxPairs * oversample; ++i) {
        auto pair = finder.next();
        if (!pair)
            break;
        drawn.push_back(std::move(*pair));
        if (auto rows = engine.aggressorRows(drawn.back())) {
            std::vector<std::size_t> &group = byBank[rows->bank];
            group.push_back(drawn.size() - 1);
            bestBank = std::max(bestBank, group.size());
        }
        if (bestBank >= maxPairs)
            break;
    }

    // Most-populated bank first; ties break on the lower bank id (the
    // map iterates banks in ascending order, stable_sort keeps that).
    std::vector<const std::vector<std::size_t> *> groups;
    for (const auto &entry : byBank)
        groups.push_back(&entry.second);
    std::stable_sort(groups.begin(), groups.end(),
                     [](const auto *a, const auto *b) {
                         return a->size() > b->size();
                     });

    std::vector<HammerPair> picked;
    for (const auto *group : groups) {
        for (std::size_t index : *group) {
            if (picked.size() >= maxPairs)
                return picked;
            picked.push_back(std::move(drawn[index]));
        }
    }
    return picked;
}

HammerRunResult
MultiHartHammer::run(const std::vector<HammerPair> &pairs,
                     std::uint64_t iterationsPerHart)
{
    const std::size_t aggressors =
        std::min<std::size_t>(pairs.size(), m.hartCount() - victims);
    return engine.runBatch(std::span(pairs).first(aggressors), victims,
                           iterationsPerHart);
}

MultiHartAttempts
MultiHartHammer::runAttempts(PairFinder &finder)
{
    MultiHartAttempts out;
    const double startSeconds = m.seconds();
    while (out.attempts < cfg.maxAttempts &&
           m.seconds() - startSeconds < cfg.hammerBudgetSeconds) {
        std::vector<HammerPair> pairs =
            selectPairs(finder, m.hartCount() - victims);
        if (pairs.empty())
            break;
        out.lastBatch = run(pairs, cfg.hammerIterations);
        out.hammerCycles += out.lastBatch.totalCycles;
        out.attempts += out.lastBatch.aggressors;
        out.flips += out.lastBatch.flips;
        if (out.lastBatch.flips > 0)
            break;
    }
    return out;
}

} // namespace pth
