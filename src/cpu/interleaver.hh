/**
 * @file
 * Deterministic hart interleaver: merges per-hart execution streams
 * into one global clock order. Multi-hart scenarios step whichever
 * hart the interleaver names next, so a run's schedule is a pure
 * function of (mode, seed, hart count) — reproducible and
 * byte-identical across threads, workers and shards like everything
 * else in the harness.
 */

#ifndef PTH_CPU_INTERLEAVER_HH
#define PTH_CPU_INTERLEAVER_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"

namespace pth
{

/** How the interleaver picks the next hart to step. */
enum class InterleaveMode
{
    RoundRobin,  //!< strict rotation over the active harts
    Seeded,      //!< seeded uniform draw over the active harts
};

/** Canonical CLI/report name ("round-robin" or "seeded"). */
const char *interleaveModeName(InterleaveMode mode);

/** Parse MODE[:SEED]: a mode name ("round-robin"/"rr" or
 * "seeded"/"random"), optionally followed by a whole decimal seed
 * below 2^64 (default 0).
 * @return false without touching mode or seed on bad input. */
bool parseInterleaveMode(const char *text, InterleaveMode &mode,
                         std::uint64_t &seed);

/** The schedule generator. */
class Interleaver
{
  public:
    /** All harts in [0, harts) start active. */
    Interleaver(InterleaveMode mode, std::uint64_t seed, unsigned harts);

    /** Next hart to step (at least one hart must be active). */
    unsigned next();

    /** Remove a finished hart from the rotation. */
    void finish(unsigned hart);

    /** True once every hart has finished. */
    bool done() const { return active.empty(); }

    /** Harts still in the rotation. */
    unsigned activeCount() const
    {
        return static_cast<unsigned>(active.size());
    }

  private:
    InterleaveMode mode;
    Rng rng;
    std::vector<unsigned> active;
    std::size_t cursor = 0;
};

} // namespace pth

#endif // PTH_CPU_INTERLEAVER_HH
