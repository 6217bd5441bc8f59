#include "attack/pair_finder.hh"

#include "common/logging.hh"
#include "cpu/machine.hh"

namespace pth
{

PairFinder::PairFinder(Machine &machine, const AttackConfig &config,
                       SprayManager &sprayer_, TlbEvictionTool &tlbTool_,
                       EvictionSetSelector &selector_)
    : m(machine), sprayer(sprayer_), tlbTool(tlbTool_),
      selector(selector_), probe(machine.cpu(), machine.config(), config)
{
}

std::uint64_t
PairFinder::pairStride()
 const
{
    // 2 * RowsSize * 512: two addresses this far apart have L1PTEs two
    // row indices apart (sandwiching the victim row) when the kernel
    // allocated their L1PTs consecutively.
    return 2 * m.config().dramGeometry.rowIndexStride() * kPtesPerPage;
}

std::optional<HammerPair>
PairFinder::provision(VirtAddr va1, VirtAddr va2)
{
    HammerPair pair;
    pair.va1 = va1;
    pair.va2 = va2;

    // TLB eviction-set selection is table lookup: ~1 us.
    Cycles tlbStart = m.clock().now();
    pair.tlbSet1 = tlbTool.evictionSetFor(va1, tlbTool.workingSetSize());
    pair.tlbSet2 = tlbTool.evictionSetFor(va2, tlbTool.workingSetSize());
    m.clock().advance(m.config().cycles(1e-6));
    pair.tlbSelectCycles = m.clock().now() - tlbStart;

    // Algorithm 2 for both L1PTEs.
    SetSelection sel1 = selector.select(va1);
    SetSelection sel2 = selector.select(va2);
    if (!sel1.set || !sel2.set)
        return std::nullopt;
    unsigned size = std::min<unsigned>(
        static_cast<unsigned>(sel1.set->lines.size()),
        m.config().caches.llc.ways + kLlcSetSizeMargin);
    sel1.set->firstLines(size, pair.llcSet1);
    sel2.set->firstLines(size, pair.llcSet2);
    pair.llcSelectCycles = sel1.elapsed + sel2.elapsed;
    return pair;
}

bool
PairFinder::verifySameBank(const HammerPair &pair)
{
    // Row-buffer-conflict probing: force both L1PTE fetches to DRAM;
    // when they share a bank, the second fetch pays a row conflict.
    unsigned conflicts = 0;
    for (unsigned i = 0; i < kBankProbeCount; ++i) {
        m.cpu().accessBatch(pair.tlbSet1);
        m.cpu().accessBatch(pair.tlbSet2);
        m.cpu().accessBatch(pair.llcSet1);
        m.cpu().accessBatch(pair.llcSet2);
        m.cpu().access(pair.va1);
        if (probe.timeAccess(pair.va2) > probe.bankConflictThreshold())
            ++conflicts;
    }
    return conflicts * 2 > kBankProbeCount;
}

std::optional<HammerPair>
PairFinder::next()
{
    std::uint64_t stride = pairStride();
    std::uint64_t regionSpan = stride / kSuperPageBytes;

    for (unsigned attempt = 0; attempt < 4096; ++attempt) {
        ++tried;
        VirtAddr va1 = sprayer.randomTarget(salt++);
        if (sprayer.regionOf(va1) + regionSpan >= sprayer.ptPages()) {
            continue;  // would fall off the sprayed range
        }
        VirtAddr va2 = va1 + stride;

        auto pair = provision(va1, va2);
        if (!pair)
            continue;

        Cycles verifyStart = m.clock().now();
        bool sameBank = verifySameBank(*pair);
        pair->verifyCycles = m.clock().now() - verifyStart;
        if (!sameBank)
            continue;

        ++acceptedCount;
        return pair;
    }
    return std::nullopt;
}

} // namespace pth
