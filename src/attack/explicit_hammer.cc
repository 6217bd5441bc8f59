#include "attack/explicit_hammer.hh"

#include "common/logging.hh"
#include "common/random.hh"
#include "cpu/machine.hh"

namespace pth
{

ExplicitHammer::ExplicitHammer(Machine &machine, const AttackConfig &config)
    : m(machine), cfg(config)
{
}

void
ExplicitHammer::setup(std::uint64_t bytes)
{
    bufferBytes = bytes;
    m.kernel().mmapAnon(m.cpu().process(), kScratchBase, bytes);
}

std::optional<ExplicitHammer::BufferPair>
ExplicitHammer::pickPair(std::uint64_t salt) const
{
    // The published tool knows physical addresses (pagemap); emulate
    // by picking a random buffer page and the page two row-indices
    // later, then checking they really share a bank.
    Rng rng(cfg.seed ^ mix64(salt));
    std::uint64_t stride = 2 * m.config().dramGeometry.rowIndexStride();
    if (bufferBytes <= stride)
        return std::nullopt;
    auto pt = m.cpu().process().pageTables();

    for (unsigned attempt = 0; attempt < 64; ++attempt) {
        VirtAddr a1 = kScratchBase +
                      (rng.below((bufferBytes - stride) / kPageBytes)
                       << kPageShift);
        VirtAddr a2 = a1 + stride;
        auto t1 = pt->translate(a1);
        auto t2 = pt->translate(a2);
        if (!t1 || !t2)
            continue;
        DramLocation l1 =
            m.dram().mapping().decompose(t1->frame << kPageShift);
        DramLocation l2 =
            m.dram().mapping().decompose(t2->frame << kPageShift);
        if (l1.bank == l2.bank && (l1.row + 2 == l2.row))
            return BufferPair{a1, a2, l1.bank, l1.row};
    }
    return std::nullopt;
}

Cycles
ExplicitHammer::iteration(VirtAddr a1, VirtAddr a2, unsigned nopPadding)
{
    Cycles start = m.clock().now();
    m.cpu().clflush(a1);
    m.cpu().clflush(a2);
    m.cpu().accessBatch({a1, a2});
    if (nopPadding)
        m.cpu().nops(nopPadding);
    return m.clock().now() - start;
}

double
ExplicitHammer::measureIterationCycles(unsigned nopPadding)
{
    auto pair = pickPair(0x715);
    pth_assert(pair.has_value(), "no hammerable pair in buffer");
    Cycles total = 0;
    const unsigned reps = 32;
    for (unsigned i = 0; i < reps; ++i)
        total += iteration(pair->va1, pair->va2, nopPadding);
    return static_cast<double>(total) / reps;
}

ExplicitHammerResult
ExplicitHammer::run(unsigned nopPadding, double budgetSeconds)
{
    return hammer(nopPadding, budgetSeconds, /*singleSided=*/false);
}

ExplicitHammerResult
ExplicitHammer::runSingleSided(unsigned nopPadding, double budgetSeconds)
{
    return hammer(nopPadding, budgetSeconds, /*singleSided=*/true);
}

ExplicitHammerResult
ExplicitHammer::hammer(unsigned nopPadding, double budgetSeconds,
                       bool singleSided)
{
    pth_assert(bufferBytes > 0, "setup() has not run");
    ExplicitHammerResult result;
    Cycles budget = m.config().cycles(budgetSeconds);
    Cycles start = m.clock().now();
    Cycles window = m.config().disturbance.refreshWindowCycles;

    // Like the published tool: hammer one address set for a while,
    // check for flips, move on.
    const std::uint64_t windowsPerPair = 8;
    std::uint64_t salt = singleSided ? 0x55 : 0;

    while (m.clock().now() - start < budget) {
        auto pair = pickPair(salt++);
        if (!pair)
            continue;
        ++result.pairsHammered;

        // Single-sided hammers only the first aggressor, alternating
        // with a far-away row in the same bank to defeat the row buffer.
        VirtAddr partner = pair->va2;
        if (singleSided)
            partner += 8 * m.config().dramGeometry.rowIndexStride();

        // Detailed warmup for the per-iteration cost.
        Cycles warmupTotal = 0;
        const unsigned warmup = 16;
        for (unsigned i = 0; i < warmup; ++i)
            warmupTotal += iteration(pair->va1, partner, nopPadding);
        double perIter = static_cast<double>(warmupTotal) / warmup;
        result.meanCyclesPerIteration = perIter;

        // Bulk-apply the rest of this pair's budget.
        std::vector<std::uint64_t> rows = {pair->row1};
        if (!singleSided)
            rows.push_back(pair->row1 + 2);
        std::uint64_t actsPerWindow = static_cast<std::uint64_t>(
            static_cast<double>(window) / perIter);
        std::uint64_t flipsBefore = m.dram().totalFlips();
        m.dram().hammerBulk(pair->bank, rows, actsPerWindow,
                            windowsPerPair);
        m.clock().advance(window * windowsPerPair);

        // The tool scans its buffer for changes after each set.
        m.clock().advance(bufferBytes / kLineBytes * 4);

        if (m.dram().totalFlips() > flipsBefore) {
            result.flipped = true;
            break;
        }
    }
    result.secondsToFirstFlip =
        m.config().seconds(m.clock().now() - start);
    return result;
}

} // namespace pth
