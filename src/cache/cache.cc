#include "cache/cache.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace pth
{

Cache::Cache(const CacheConfig &config, std::string name)
    : cfg(config), label(std::move(name)), hash(config.slices),
      lines(config.sets * config.slices, config.ways, config.replacement,
            mix64(config.sets + config.ways))
{
    pth_assert(isPow2(cfg.sets), "cache sets must be a power of two");
    pth_assert(cfg.ways >= 1, "cache needs at least one way");
}

std::uint64_t
Cache::stateHash() const
{
    std::uint64_t h = hashCombine(0x5ca1e, nHits);
    h = hashCombine(h, nMisses, lines.policyHash());
    for (std::uint64_t i = 0; i < lines.size(); ++i)
        h = hashCombine(h, lines.valid(i) ? lines.key(i) | (1ull << 63) : 0);
    return h;
}

} // namespace pth
