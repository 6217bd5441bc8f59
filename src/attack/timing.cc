#include "attack/timing.hh"

#include "cpu/cpu.hh"
#include "cpu/machine_config.hh"
#include "tlb/two_level_tlb.hh"

namespace pth
{

LatencyProbe::LatencyProbe(Cpu &cpu_, const MachineConfig &machine,
                           const AttackConfig &attack)
    : cpu(cpu_), mcfg(machine), acfg(attack), noise(attack.seed ^ 0x71e)
{
}

Cycles
LatencyProbe::timeAccess(VirtAddr va)
{
    AccessOutcome out = cpu.access(va);
    Cycles measured = out.latency;
    if (acfg.timingNoiseProbability > 0 &&
        noise.chance(acfg.timingNoiseProbability)) {
        // An interrupt or sibling-core burst landed inside the timed
        // window.
        measured += kTimingNoiseCycles;
    }
    return measured;
}

Cycles
LatencyProbe::dramThreshold() const
{
    return dramThresholdFor(mcfg);
}

Cycles
LatencyProbe::dramThresholdFor(const MachineConfig &machine)
{
    // Anything slower than a full cache-hit path plus a healthy walk
    // margin must have touched DRAM.
    Cycles cacheHit = machine.caches.l1d.latency +
                      machine.caches.l2.latency +
                      machine.caches.llc.latency;
    return cacheHit + kL2TlbHitLatency + 60;
}

Cycles
LatencyProbe::bankConflictThreshold() const
{
    // A PTE fetch from an already-open different row of the same bank
    // pays rowConflict; a different bank pays at most rowClosed. Split
    // the difference, on top of the cache+walk overhead.
    Cycles overhead = mcfg.caches.l1d.latency + mcfg.caches.l2.latency +
                      mcfg.caches.llc.latency + kL2TlbHitLatency + 10;
    return overhead +
           (mcfg.dramTiming.rowClosed + mcfg.dramTiming.rowConflict) / 2;
}

} // namespace pth
