/**
 * @file
 * The attacker's timing side channel: rdtsc-fenced access latency
 * measurements with optional measurement noise, plus the latency
 * thresholds derived from the machine's (publicly known) timing
 * parameters.
 */

#ifndef PTH_ATTACK_TIMING_HH
#define PTH_ATTACK_TIMING_HH

#include "attack/attack_config.hh"
#include "common/random.hh"
#include "common/types.hh"

namespace pth
{

class Cpu;
class MachineConfig;

/** Cycles a measurement-noise spike adds to one timed access. */
inline constexpr Cycles kTimingNoiseCycles = 400;

/** Latency measurement helper. */
class LatencyProbe
{
  public:
    LatencyProbe(Cpu &cpu, const MachineConfig &machine,
                 const AttackConfig &attack);

    /** Timed access to va; advances the clock; may include noise. */
    Cycles timeAccess(VirtAddr va);

    /**
     * Latency above which a data access must have reached DRAM
     * (used by the eviction-set conflict test).
     */
    Cycles dramThreshold() const;

    /**
     * The same threshold computed from a machine configuration alone —
     * shared with the pool builder's per-class conflict testers, which
     * time accesses without a Cpu.
     */
    static Cycles dramThresholdFor(const MachineConfig &machine);

    /**
     * Latency above which a translated access hit a row-buffer
     * conflict, i.e. the two probed L1PTEs share a bank (Section IV-D).
     */
    Cycles bankConflictThreshold() const;

  private:
    Cpu &cpu;
    const MachineConfig &mcfg;
    const AttackConfig &acfg;
    Rng noise;
};

} // namespace pth

#endif // PTH_ATTACK_TIMING_HH
