#include "attack/pool_build.hh"

#include <algorithm>
#include <numeric>

#include "attack/timing.hh"

namespace pth
{

namespace
{

/** Disturbance config with the fault engine switched off: conflict
 * tests on a private DRAM replica must not spend host time placing
 * weak cells nobody can observe. */
DisturbanceConfig
inertDisturbance(const DisturbanceConfig &config)
{
    DisturbanceConfig quiet = config;
    quiet.weakRowProbability = 0;
    return quiet;
}

/** Round a double cycle estimate to the nearest representable count. */
Cycles
roundCycles(double value)
{
    if (value <= 0)
        return 0;
    // Largest double below 2^64.
    constexpr double kMax = 18446744073709549568.0;
    if (value >= kMax)
        return ~0ull;
    return static_cast<Cycles>(value + 0.5);
}

} // namespace

ClassConflictTester::ClassConflictTester(const MachineConfig &machine,
                                         const AttackConfig &attack,
                                         const std::vector<PhysAddr> &phys_,
                                         std::uint64_t noiseSeed)
    : acfg(attack), phys(phys_), mem(machine.dramGeometry.sizeBytes),
      dram(machine.dramGeometry, machine.dramTiming,
           inertDisturbance(machine.disturbance), mem),
      llc(machine.caches.llc, "llc-replica"), noise(noiseSeed),
      hitPathLatency(machine.caches.l1d.latency +
                     machine.caches.l2.latency +
                     machine.caches.llc.latency),
      threshold(LatencyProbe::dramThresholdFor(machine))
{
}

Cycles
ClassConflictTester::touch(std::uint32_t idx)
{
    Cycles latency = hitPathLatency;
    if (!llc.access(phys[idx])) {
        latency += dram.access(phys[idx], clock_).latency;
        llc.fill(phys[idx]);
    }
    clock_ += latency;
    ++counters_.lineAccesses;
    return latency;
}

Cycles
ClassConflictTester::timedTouch(std::uint32_t idx)
{
    Cycles measured = touch(idx);
    if (acfg.timingNoiseProbability > 0 &&
        noise.chance(acfg.timingNoiseProbability))
        measured += kTimingNoiseCycles;
    return measured;
}

bool
ClassConflictTester::evicts(std::uint32_t x,
                            const std::vector<std::uint32_t> &set,
                            const std::vector<std::uint32_t> *churn)
{
    unsigned positive = 0;
    for (unsigned r = 0; r < kLlcBuildRepeats; ++r) {
        if (churn)
            for (std::uint32_t idx : *churn)
                touch(idx);
        touch(x);
        // Rotate the traversal start per repeat: tree-PLRU can evict
        // x with fewer congruent lines than the associativity when
        // one specific fill order keeps hitting x's way, and such a
        // pattern fluke repeats identically from a repeated state. A
        // genuinely congruent set evicts in every order; a fluke
        // does not survive six different ones.
        const std::size_t n = set.size();
        const std::size_t start = n ? (r * 7919) % n : 0;
        for (std::size_t k = 0; k < n; ++k)
            touch(set[(start + k) % n]);
        if (timedTouch(x) > threshold)
            ++positive;
    }
    ++counters_.conflictTests;
    return positive * 2 > kLlcBuildRepeats;
}

std::vector<char>
ClassConflictTester::classify(const std::vector<std::uint32_t> &rest,
                              const std::vector<std::uint32_t> &survivors,
                              unsigned ways)
{
    // Phase 1 — batched screen: prime a batch, traverse the
    // survivors, probe the batch. One experiment classifies up to
    // `ways` candidates (capped at the associativity so a batch
    // cannot overflow any one set under LRU). Under tree-PLRU a
    // batch of mutually congruent candidates can still self-evict —
    // one displaced line cascades through the probes — so positives
    // are only suspects here.
    const std::size_t batchMax = ways ? ways : 1;
    std::vector<char> member(rest.size());
    for (std::size_t base = 0; base < rest.size(); base += batchMax) {
        const std::size_t end =
            std::min(rest.size(), base + batchMax);
        std::vector<unsigned> votes(end - base, 0);
        for (unsigned r = 0; r < kLlcBuildRepeats; ++r) {
            for (std::size_t k = base; k < end; ++k)
                touch(rest[k]);
            for (std::uint32_t idx : survivors)
                touch(idx);
            for (std::size_t k = base; k < end; ++k)
                if (timedTouch(rest[k]) > threshold)
                    ++votes[k - base];
        }
        ++counters_.conflictTests;
        for (std::size_t k = base; k < end; ++k)
            member[k] = votes[k - base] * 2 > kLlcBuildRepeats;
    }

    // Phase 2 — confirm each suspect with the standard per-candidate
    // conflict test (what the baseline runs for the whole rest of the
    // class). Only the few screen positives pay for it, so the batch
    // win survives while false positives do not.
    for (std::size_t k = 0; k < rest.size(); ++k)
        if (member[k])
            member[k] = evicts(rest[k], survivors);
    return member;
}

ClassExtraction
extractClassGroupTesting(const MachineConfig &machine,
                         const AttackConfig &attack,
                         const std::vector<VirtAddr> &lines,
                         const std::vector<PhysAddr> &phys,
                         std::uint64_t classIndexHint,
                         std::uint64_t setIndexMask, unsigned maxGroups,
                         std::uint64_t noiseSeed)
{
    ClassExtraction out;
    const unsigned ways = machine.caches.llc.ways;
    if (lines.size() <= ways)
        return out;

    ClassConflictTester tester(machine, attack, phys, noiseSeed);
    std::vector<std::uint32_t> candidates(lines.size());
    std::iota(candidates.begin(), candidates.end(), 0u);

    unsigned extracted = 0;
    while (candidates.size() > ways &&
           (maxGroups == 0 || extracted < maxGroups)) {
        const std::uint32_t x = candidates.front();
        std::vector<std::uint32_t> working(candidates.begin() + 1,
                                           candidates.end());

        // Rest-of-class churn for the reduction's conflict tests
        // (see ClassConflictTester::evicts).
        auto churnFor = [&](const std::vector<std::uint32_t> &trial) {
            std::vector<char> inTrial(lines.size(), 0);
            inTrial[x] = 1;
            for (std::uint32_t idx : trial)
                inTrial[idx] = 1;
            std::vector<std::uint32_t> churn;
            churn.reserve(lines.size() - trial.size() - 1);
            for (std::uint32_t i = 0;
                 i < static_cast<std::uint32_t>(lines.size()); ++i)
                if (!inTrial[i])
                    churn.push_back(i);
            return churn;
        };

        {
            std::vector<std::uint32_t> churn = churnFor(working);
            if (!tester.evicts(x, working, &churn)) {
                // Not enough congruent company left for x.
                candidates.erase(candidates.begin());
                continue;
            }
        }

        // Reduction. Small classes (superpage buckets are a few
        // dozen lines) gain nothing from chunking — the split
        // bookkeeping costs as much as the candidates themselves —
        // so they reduce by single elimination on the same isolated
        // tester; extraction still parallelizes across classes.
        const bool chunked = lines.size() > 8 * ways;
        if (!chunked) {
            for (std::size_t i = 0;
                 i < working.size() && working.size() > ways;) {
                const std::uint32_t removed = working[i];
                working.erase(working.begin() +
                              static_cast<std::ptrdiff_t>(i));
                std::vector<std::uint32_t> churn = churnFor(working);
                if (!tester.evicts(x, working, &churn)) {
                    working.insert(working.begin() +
                                       static_cast<std::ptrdiff_t>(i),
                                   removed);
                    ++i;
                }
            }
        }

        // Group-testing reduction: split the working set into ways+1
        // near-equal chunks; any chunk whose removal keeps the set
        // evicting x holds none of the needed congruent lines and is
        // dropped whole. One split round removes every such chunk
        // before re-splitting.
        while (chunked && working.size() > ways) {
            const std::size_t n = working.size();
            const unsigned parts = ways + 1;
            std::vector<char> kept(parts, 1);
            bool removedAny = false;
            for (unsigned c = 0; c < parts; ++c) {
                if (c * n / parts == (c + 1) * n / parts)
                    continue;
                std::vector<std::uint32_t> trial;
                trial.reserve(n);
                for (unsigned d = 0; d < parts; ++d) {
                    if (d == c || !kept[d])
                        continue;
                    trial.insert(trial.end(),
                                 working.begin() + d * n / parts,
                                 working.begin() + (d + 1) * n / parts);
                }
                if (trial.size() < ways)
                    continue;
                std::vector<std::uint32_t> churn = churnFor(trial);
                if (tester.evicts(x, trial, &churn)) {
                    kept[c] = 0;
                    removedAny = true;
                }
            }
            if (!removedAny)
                break;
            std::vector<std::uint32_t> survivors;
            survivors.reserve(n);
            for (unsigned d = 0; d < parts; ++d) {
                if (!kept[d])
                    continue;
                survivors.insert(survivors.end(),
                                 working.begin() + d * n / parts,
                                 working.begin() + (d + 1) * n / parts);
            }
            working = std::move(survivors);
        }

        // A reduction that stalled under replacement-policy flukes
        // can leave an oversized survivor set; cap it so the
        // per-survivor purification below stays O(ways) and the
        // overflow is classified by the cheap batched membership
        // pass instead.
        if (working.size() > 2 * ways)
            working.resize(2 * ways);

        // Measurement noise (or the truncation above) can sneak a
        // needed line out; a survivor set that no longer evicts x is
        // discarded like a failed front candidate rather than
        // poisoning the pool.
        {
            std::vector<std::uint32_t> churn = churnFor(working);
            if (!tester.evicts(x, working, &churn)) {
                candidates.erase(candidates.begin());
                continue;
            }
        }

        // Batched membership for the rest of the class, classified
        // against the survivors.
        std::vector<char> taken(lines.size(), 0);
        taken[x] = 1;
        for (std::uint32_t idx : working)
            taken[idx] = 1;
        std::vector<std::uint32_t> rest;
        rest.reserve(candidates.size());
        for (std::uint32_t idx : candidates)
            if (!taken[idx])
                rest.push_back(idx);

        std::vector<char> member = tester.classify(rest, working, ways);
        std::vector<std::uint32_t> members;
        std::vector<std::uint32_t> remaining;
        members.reserve(rest.size());
        remaining.reserve(rest.size());
        for (std::size_t k = 0; k < rest.size(); ++k) {
            if (member[k])
                members.push_back(rest[k]);
            else
                remaining.push_back(rest[k]);
        }

        // Purify the survivors against the confirmed core. Each
        // member passed an individual conflict test, so x plus a
        // ways-sized member prefix is a high-confidence congruent
        // traversal — and a traversal that never touches a foreign
        // survivor's set cannot evict it under ANY replacement
        // policy, which makes this check policy-exact where the
        // reduction's own predicate is not. A demoted survivor goes
        // back to the candidate list like any other non-member.
        if (members.size() >= ways) {
            std::vector<std::uint32_t> core;
            core.reserve(ways + 1);
            core.push_back(x);
            core.insert(core.end(), members.begin(),
                        members.begin() + ways);
            std::vector<std::uint32_t> pure;
            pure.reserve(working.size());
            for (std::uint32_t s : working) {
                if (tester.evicts(s, core))
                    pure.push_back(s);
                else
                    remaining.push_back(s);
            }
            working = std::move(pure);
        }

        EvictionSet set;
        set.classIndex = classIndexHint != ~0ull
                             ? classIndexHint
                             : ((lines[x] >> kLineShift) & setIndexMask);
        set.lines.reserve(working.size() + 1 + members.size());
        for (std::uint32_t idx : working)
            set.lines.push_back(lines[idx]);
        set.lines.push_back(lines[x]);
        for (std::uint32_t idx : members)
            set.lines.push_back(lines[idx]);
        out.sets.push_back(std::move(set));
        candidates = std::move(remaining);
        ++extracted;
    }

    out.cycles = tester.elapsed();
    out.counters = tester.counters();
    return out;
}

Cycles
extrapolateUniformClasses(Cycles sampledCycles, unsigned classesTotal,
                          unsigned classesSampled)
{
    if (classesSampled == 0)
        return sampledCycles;
    return roundCycles(static_cast<double>(sampledCycles) *
                       classesTotal / classesSampled);
}

namespace
{

/** Shared scan-work extrapolation: weight group g of an N-candidate
 * class by (N - 2*ways*g) raised to the model's exponent. */
Cycles
extrapolateScanWork(Cycles sampledCycles,
                    const std::vector<std::size_t> &classCandidates,
                    const std::vector<unsigned> &groupsDone,
                    unsigned ways, unsigned exponent)
{
    const double span = 2.0 * ways;
    auto weight = [&](std::size_t candidates, unsigned group) {
        double remaining = static_cast<double>(candidates) - span * group;
        if (remaining <= 0)
            return 0.0;
        return exponent == 2 ? remaining * remaining : remaining;
    };

    double full = 0;
    for (std::size_t candidates : classCandidates) {
        const unsigned groupsTotal =
            static_cast<unsigned>(candidates / (2 * ways));
        for (unsigned g = 0; g < groupsTotal; ++g)
            full += weight(candidates, g);
    }

    double measured = 0;
    for (std::size_t c = 0;
         c < groupsDone.size() && c < classCandidates.size(); ++c) {
        const std::size_t candidates = classCandidates[c];
        const unsigned groupsTotal =
            static_cast<unsigned>(candidates / (2 * ways));
        const unsigned done = std::min(groupsDone[c], groupsTotal);
        for (unsigned g = 0; g < done; ++g)
            measured += weight(candidates, g);
    }

    const double scale = measured > 0 ? full / measured : 1.0;
    return roundCycles(static_cast<double>(sampledCycles) * scale);
}

} // namespace

Cycles
extrapolateQuadratic(Cycles sampledCycles,
                     const std::vector<std::size_t> &classCandidates,
                     const std::vector<unsigned> &groupsDone,
                     unsigned ways)
{
    return extrapolateScanWork(sampledCycles, classCandidates,
                               groupsDone, ways, 2);
}

Cycles
extrapolateLinear(Cycles sampledCycles,
                  const std::vector<std::size_t> &classCandidates,
                  const std::vector<unsigned> &groupsDone,
                  unsigned ways)
{
    return extrapolateScanWork(sampledCycles, classCandidates,
                               groupsDone, ways, 1);
}

std::uint64_t
poolFingerprint(const std::vector<EvictionSet> &sets)
{
    std::uint64_t h = hashCombine(0x9007, sets.size());
    for (const EvictionSet &set : sets) {
        h = hashCombine(h, set.classIndex, set.lines.size());
        for (VirtAddr line : set.lines)
            h = hashCombine(h, line);
    }
    return h;
}

} // namespace pth
