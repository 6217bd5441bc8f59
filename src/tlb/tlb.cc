#include "tlb/tlb.hh"

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace pth
{

Tlb::Tlb(const TlbLevelConfig &config)
    : cfg(config),
      slots(config.sets, config.ways, config.replacement,
            mix64(config.seed ^ (config.sets * 7 + config.ways))),
      pfns(config.sets * config.ways, 0)
{
    pth_assert(isPow2(cfg.sets), "TLB sets must be a power of two");
}

std::uint64_t
Tlb::stateHash() const
{
    std::uint64_t h = hashCombine(0x71b, slots.policyHash());
    for (std::uint64_t i = 0; i < slots.size(); ++i) {
        std::uint64_t key = slots.key(i);
        h = hashCombine(h, slots.valid(i), key >> 1);
        h = hashCombine(h, pfns[i], key & 1);
    }
    return h;
}

} // namespace pth
