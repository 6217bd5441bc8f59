#include "attack/eviction_pool.hh"

#include <algorithm>
#include <future>
#include <map>
#include <set>

#include "attack/pool_build.hh"
#include "common/logging.hh"
#include "cpu/machine.hh"
#include "common/thread_pool.hh"

namespace pth
{

namespace
{

/** LLC set-index mask (bits 6-16 for 2048-set slices). */
std::uint64_t
setIndexMask(const Machine &m)
{
    return m.config().caches.llc.sets - 1;
}

} // namespace

LlcEvictionPool::LlcEvictionPool(Machine &machine, const AttackConfig &config)
    : m(machine), cfg(config), probe(machine.cpu(), machine.config(), config)
{
    bufferBytes = 2 * m.config().caches.llc.capacity();
}

Cycles
LlcEvictionPool::allocateBuffer()
{
    Cycles start = m.clock().now();
    std::uint64_t bytes = bufferBytes;
    if (cfg.superpages) {
        bytes = (bytes + kSuperPageBytes - 1) & ~(kSuperPageBytes - 1);
        m.kernel().mmapHuge(m.cpu().process(), cfg.llcBufferBase, bytes);
    } else {
        m.kernel().mmapAnon(m.cpu().process(), cfg.llcBufferBase, bytes);
    }
    bufferLines.clear();
    bufferLines.reserve(bytes / kLineBytes);
    for (std::uint64_t off = 0; off < bytes; off += kLineBytes)
        bufferLines.push_back(cfg.llcBufferBase + off);
    return m.clock().now() - start;
}

unsigned
LlcEvictionPool::workingSetSize() const
{
    return m.config().caches.llc.ways + cfg.llcSetSizeMargin;
}

bool
LlcEvictionPool::evicts(VirtAddr x, const std::vector<VirtAddr> &set)
{
    // Conflict tests pointer-chase the candidate list, so accesses are
    // serial (no MLP overlap): this is what makes pool construction
    // expensive, especially with regular pages.
    unsigned positive = 0;
    for (unsigned r = 0; r < cfg.llcBuildRepeats; ++r) {
        m.cpu().access(x);
        for (VirtAddr line : set)
            m.cpu().access(line);
        if (probe.timeAccess(x) > probe.dramThreshold())
            ++positive;
    }
    ++machineConflictTests;
    machineLineAccesses += static_cast<std::uint64_t>(cfg.llcBuildRepeats) *
                           (2 + set.size());
    return positive * 2 > cfg.llcBuildRepeats;
}

std::vector<VirtAddr>
LlcEvictionPool::classCandidates(std::uint64_t classValue,
                                 std::uint64_t classMask) const
{
    std::vector<VirtAddr> out;
    for (VirtAddr line : bufferLines)
        if (((line >> kLineShift) & classMask) == classValue)
            out.push_back(line);
    return out;
}

unsigned
LlcEvictionPool::extractGroups(std::vector<VirtAddr> candidates,
                               std::uint64_t classIndexHint,
                               unsigned maxGroups)
{
    const unsigned ways = m.config().caches.llc.ways;
    unsigned extracted = 0;

    while (candidates.size() > ways &&
           (maxGroups == 0 || extracted < maxGroups)) {
        VirtAddr x = candidates.front();
        std::vector<VirtAddr> working(candidates.begin() + 1,
                                      candidates.end());
        if (!evicts(x, working)) {
            // Not enough congruent company left for x.
            candidates.erase(candidates.begin());
            continue;
        }

        // Single-elimination reduction to a minimal eviction set.
        for (std::size_t i = 0; i < working.size();) {
            VirtAddr removed = working[i];
            working.erase(working.begin() +
                          static_cast<std::ptrdiff_t>(i));
            if (!evicts(x, working)) {
                working.insert(working.begin() +
                                   static_cast<std::ptrdiff_t>(i),
                               removed);
                ++i;
            }
        }

        // Membership test for the rest of the class.
        EvictionSet set;
        set.classIndex = classIndexHint != ~0ull
                             ? classIndexHint
                             : ((x >> kLineShift) & setIndexMask(m));
        set.lines = working;
        set.lines.push_back(x);
        std::vector<VirtAddr> rest;
        for (VirtAddr r : candidates) {
            if (r == x ||
                std::find(working.begin(), working.end(), r) !=
                    working.end())
                continue;
            if (evicts(r, working))
                set.lines.push_back(r);
            else
                rest.push_back(r);
        }
        pool.push_back(std::move(set));
        candidates = std::move(rest);
        ++extracted;
    }
    return extracted;
}

LlcEvictionPool::ExtractionStats
LlcEvictionPool::extractClasses(
    const std::vector<std::vector<VirtAddr>> &buckets,
    unsigned classesSampled, bool hintFromBucket,
    unsigned maxGroupsPerClass)
{
    ExtractionStats stats;
    stats.groupsDone.reserve(classesSampled);

    if (cfg.poolBuild.algorithm ==
        PoolBuildAlgorithm::SingleElimination) {
        const Cycles start = m.clock().now();
        const std::uint64_t tests0 = machineConflictTests;
        const std::uint64_t accesses0 = machineLineAccesses;
        for (unsigned cls = 0; cls < classesSampled; ++cls)
            stats.groupsDone.push_back(
                extractGroups(buckets[cls], hintFromBucket ? cls : ~0ull,
                              maxGroupsPerClass));
        stats.cycles = m.clock().now() - start;
        stats.conflictTests = machineConflictTests - tests0;
        stats.lineAccesses = machineLineAccesses - accesses0;
        return stats;
    }

    // Group-testing path: every class runs on a private conflict
    // tester addressed with the buffer's real physical lines and
    // seeded from (attack seed, class ordinal), so class results are
    // independent of scheduling and the index-ordered merge below
    // yields a byte-identical pool serial vs. multi-threaded.
    const std::uint64_t mask = setIndexMask(m);
    std::vector<std::vector<PhysAddr>> phys(classesSampled);
    for (unsigned cls = 0; cls < classesSampled; ++cls) {
        phys[cls].reserve(buckets[cls].size());
        for (VirtAddr line : buckets[cls])
            phys[cls].push_back(linePhys(line));
    }

    auto runClass = [&](unsigned cls) {
        return extractClassGroupTesting(
            m.config(), cfg, buckets[cls], phys[cls],
            hintFromBucket ? cls : ~0ull, mask, maxGroupsPerClass,
            hashCombine(cfg.seed, 0x9001, cls));
    };

    std::vector<ClassExtraction> extractions(classesSampled);
    if (cfg.poolBuild.threads == 1) {
        for (unsigned cls = 0; cls < classesSampled; ++cls)
            extractions[cls] = runClass(cls);
    } else {
        ThreadPool workers(cfg.poolBuild.threads);
        std::vector<std::future<ClassExtraction>> futures;
        futures.reserve(classesSampled);
        for (unsigned cls = 0; cls < classesSampled; ++cls)
            futures.push_back(
                workers.submit([&runClass, cls] { return runClass(cls); }));
        for (unsigned cls = 0; cls < classesSampled; ++cls)
            extractions[cls] = futures[cls].get();
    }

    for (ClassExtraction &extraction : extractions) {
        stats.groupsDone.push_back(
            static_cast<unsigned>(extraction.sets.size()));
        stats.cycles += extraction.cycles;
        stats.conflictTests += extraction.counters.conflictTests;
        stats.lineAccesses += extraction.counters.lineAccesses;
        for (EvictionSet &set : extraction.sets)
            pool.push_back(std::move(set));
    }
    // Pool construction is one serial attacker phase: its cost is the
    // sum of the per-class costs no matter how many host workers
    // simulated it. Charge the machine clock accordingly.
    m.clock().advance(stats.cycles);
    return stats;
}

void
LlcEvictionPool::oracleFill()
{
    // Simulator shortcut, used only to complete a pool whose
    // construction algorithm was *sampled* for host speed: remaining
    // groups are formed from the ground-truth set mapping. Unit tests
    // verify that sampled algorithmic groups coincide with oracle
    // groups, so the filled pool is exactly what a full run produces.
    std::set<std::uint64_t> covered;
    for (const EvictionSet &set : pool) {
        auto pa = linePhys(set.lines.front());
        covered.insert(m.caches().llc().globalSet(pa));
    }

    std::map<std::uint64_t, EvictionSet> groups;
    for (VirtAddr line : bufferLines) {
        PhysAddr pa = linePhys(line);
        std::uint64_t globalSet = m.caches().llc().globalSet(pa);
        if (covered.count(globalSet))
            continue;
        EvictionSet &set = groups[globalSet];
        set.classIndex = (pa >> kLineShift) & setIndexMask(m);
        set.lines.push_back(line);
    }
    for (auto &entry : groups)
        pool.push_back(std::move(entry.second));
}

PhysAddr
LlcEvictionPool::linePhys(VirtAddr line) const
{
    auto tr = m.cpu().process().pageTables()->translate(line);
    pth_assert(tr.has_value(), "buffer line unmapped");
    // translate() already resolves huge mappings to the covering
    // 4 KiB frame, so composing with the page offset is uniform.
    PhysAddr pa = (tr->frame << kPageShift) | (line & (kPageBytes - 1));
    m.memory().checkRange(pa);
    return pa;
}

PoolBuildReport
LlcEvictionPool::buildSuperpage(unsigned sampleClasses)
{
    pth_assert(!bufferLines.empty(), "buffer not allocated");
    PoolBuildReport report;
    std::uint64_t mask = setIndexMask(m);
    report.classesTotal = static_cast<unsigned>(mask + 1);
    report.classesSampled = sampleClasses == 0
                                ? report.classesTotal
                                : std::min<unsigned>(sampleClasses,
                                                     report.classesTotal);

    report.algorithm = cfg.poolBuild.algorithm;
    report.threads = cfg.poolBuild.threads;

    // Bucket lines by their (known, bits 6-16) class in one pass.
    std::vector<std::vector<VirtAddr>> buckets(mask + 1);
    for (VirtAddr line : bufferLines)
        buckets[(line >> kLineShift) & mask].push_back(line);

    ExtractionStats stats = extractClasses(
        buckets, report.classesSampled, /*hintFromBucket=*/true, 0);
    report.sampledCycles = stats.cycles;
    report.conflictTests = stats.conflictTests;
    report.lineAccesses = stats.lineAccesses;
    // Superpage classes all do the same work; scale linearly. The
    // product is computed in double (and rounded like the
    // regular-page path) — paper-scale cycle counts overflow a u64
    // cycles * classes product.
    report.extrapolatedCycles = extrapolateUniformClasses(
        report.sampledCycles, report.classesTotal, report.classesSampled);

    if (report.classesSampled < report.classesTotal)
        oracleFill();
    return report;
}

PoolBuildReport
LlcEvictionPool::buildRegularSampled(unsigned sampleClasses,
                                     unsigned groupsPerClass)
{
    pth_assert(!bufferLines.empty(), "buffer not allocated");
    PoolBuildReport report;
    // Regular pages leak only the 4 KiB page offset: line-index bits
    // 6-11, i.e. 64 classes with 32x more candidates each.
    const std::uint64_t mask = 0x3f;
    report.classesTotal = 64;
    // 0 means "all classes", exactly like the superpage path.
    report.classesSampled =
        sampleClasses == 0 ? report.classesTotal
                           : std::min<unsigned>(sampleClasses, 64);
    report.algorithm = cfg.poolBuild.algorithm;
    report.threads = cfg.poolBuild.threads;

    std::vector<std::vector<VirtAddr>> buckets(64);
    for (VirtAddr line : bufferLines)
        buckets[(line >> kLineShift) & mask].push_back(line);

    ExtractionStats stats =
        extractClasses(buckets, report.classesSampled,
                       /*hintFromBucket=*/false, groupsPerClass);
    report.sampledCycles = stats.cycles;
    report.conflictTests = stats.conflictTests;
    report.lineAccesses = stats.lineAccesses;

    // Extrapolate the measured prefix over every group of every
    // class, each class weighted by its own bucket size — buffers
    // whose line count is not a multiple of 64 leave the tail
    // classes one line short. Single elimination scans ~(N -
    // 2*ways*g) candidates per test for group g, so its cost falls
    // off quadratically; the group-testing reduction traverses
    // trial-plus-churn ~= the whole class per test, so its per-group
    // cost decays only linearly with the remainder.
    std::vector<std::size_t> classCandidates(buckets.size());
    for (std::size_t c = 0; c < buckets.size(); ++c)
        classCandidates[c] = buckets[c].size();
    report.extrapolatedCycles =
        cfg.poolBuild.algorithm == PoolBuildAlgorithm::SingleElimination
            ? extrapolateQuadratic(report.sampledCycles,
                                   classCandidates, stats.groupsDone,
                                   m.config().caches.llc.ways)
            : extrapolateLinear(report.sampledCycles, classCandidates,
                                stats.groupsDone,
                                m.config().caches.llc.ways);

    oracleFill();
    return report;
}

std::vector<const EvictionSet *>
LlcEvictionPool::candidatesForLineOffset(std::uint64_t lineOffset) const
{
    std::vector<const EvictionSet *> out;
    for (const EvictionSet &set : pool)
        if ((set.classIndex & 0x3f) == (lineOffset & 0x3f))
            out.push_back(&set);
    return out;
}

double
LlcEvictionPool::profileEvictionRate(VirtAddr target, unsigned setSize,
                                     unsigned trials)
{
    // Find the pool set congruent with the target line.
    const EvictionSet *best = nullptr;
    for (const EvictionSet &set : pool) {
        if (std::find(set.lines.begin(), set.lines.end(), target) !=
            set.lines.end()) {
            best = &set;
            break;
        }
    }
    pth_assert(best, "target line not in any pool set");

    std::vector<VirtAddr> evictionSet;
    for (VirtAddr line : best->lines) {
        if (line != target && evictionSet.size() < setSize)
            evictionSet.push_back(line);
    }
    // Top up with non-congruent buffer lines when the group is smaller
    // than the requested sweep size (mirrors the paper's oversized
    // initial sets, whose extra members are harmless).
    for (VirtAddr line : bufferLines) {
        if (evictionSet.size() >= setSize)
            break;
        if (line == target)
            continue;
        if (std::find(best->lines.begin(), best->lines.end(), line) ==
            best->lines.end())
            evictionSet.push_back(line);
    }

    unsigned misses = 0;
    for (unsigned t = 0; t < trials; ++t) {
        m.cpu().access(target);
        for (VirtAddr line : evictionSet)
            m.cpu().access(line);
        if (probe.timeAccess(target) > probe.dramThreshold())
            ++misses;
    }
    return static_cast<double>(misses) / trials;
}

} // namespace pth
