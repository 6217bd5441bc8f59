#include "workloads.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "attack/multi_hammer.hh"
#include "attack/pthammer.hh"
#include "common/stats.hh"
#include "cpu/machine.hh"
#include "dram/flip_model.hh"
#include "kernel/kernel_module.hh"

namespace perfbench
{

namespace
{

using pth::AttackConfig;
using pth::Cycles;
using pth::Machine;
using pth::RunResult;
using pth::RunSpec;

// Each spec mirrors a bench row, with its budget scaled down so that
// one run takes one to three host seconds and a window holds enough
// runs for a steady median; README.md gives the reasons per workload.

/** bench_table2_attack_times' T420/superpage row, 16 attempts. */
RunSpec
t420Superpage(std::uint64_t seed)
{
    RunSpec spec;
    spec.label = "t420_superpage";
    spec.seed = seed;
    spec.preset = pth::MachinePreset::LenovoT420;
    spec.strategy = pth::HammerStrategy::PThammer;
    spec.attack.superpages = true;
    spec.attack.sprayBytes = 2ull << 30;
    spec.attack.maxAttempts = 16;
    return spec;
}

/** bench_multicore_hammer --tiny's trr/harts4 row, 16 attempts (four
 * batches of four harts) instead of 120. */
RunSpec
multihart4Trr(std::uint64_t seed)
{
    RunSpec spec;
    spec.label = "multihart4_trr";
    spec.seed = seed;
    spec.preset = pth::MachinePreset::TestSmall;
    spec.strategy = pth::HammerStrategy::MultiHart;
    spec.harts = 4;
    spec.dramModel = pth::FlipModelKind::Trr;
    spec.attack.superpages = true;
    spec.attack.sprayBytes = 24ull << 20;
    spec.attack.superpageSampleClasses = 2;
    spec.attack.maxAttempts = 16;
    spec.attack.hammerBudgetSeconds = 36000;
    return spec;
}

/** One implicit-hammer attempt on regular pages, every iteration
 * simulated in detail (100k of the paper's 1M). */
RunSpec
t420DetailedHammer(std::uint64_t seed)
{
    RunSpec spec;
    spec.label = "t420_detailed_hammer";
    spec.seed = seed;
    spec.preset = pth::MachinePreset::LenovoT420;
    spec.strategy = pth::HammerStrategy::Implicit;
    spec.attack.superpages = false;
    spec.attack.sprayBytes = 2ull << 30;
    spec.attack.hammerIterations = 100'000;
    spec.attack.hammerWarmupIterations = 100'000;
    return spec;
}

std::string
exact(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
exact(std::uint64_t value)
{
    return std::to_string(value);
}

std::string
exact(bool value)
{
    return value ? "true" : "false";
}

/** The attacker-side state PThammerAttack::prepare() builds. */
struct Prepared
{
    pth::AttackReport report;
    std::unique_ptr<pth::SprayManager> spray;
    std::unique_ptr<pth::TlbEvictionTool> tlb;
    std::unique_ptr<pth::LlcEvictionPool> pool;
    std::unique_ptr<pth::EvictionSetSelector> selector;
    std::unique_ptr<pth::PairFinder> pairs;
    std::unique_ptr<pth::ImplicitHammer> hammer;
    std::unique_ptr<pth::FlipChecker> checker;
    std::unique_ptr<pth::Exploit> exploit;
};

/** PThammerAttack's constructor and prepare(), call for call. */
void
tracedPrepare(Tracer &t, Machine &m, const AttackConfig &cfg, Prepared &p,
              TracedExtras &extras)
{
    Tracer::Scope prepare(t, "attack.prepare", &m);
    p.report.machine = m.config().name;
    p.report.superpages = cfg.superpages;
    p.report.defense = m.kernel().defense().name();

    {
        Tracer::Scope span(t, "attack.spray", &m);
        pth::Process &attacker = m.kernel().createProcess(/*uid=*/1000);
        m.cpu().setProcess(attacker);
        if (cfg.exhaustKernelFraction > 0)
            m.kernel().exhaustKernelZone(cfg.exhaustKernelFraction);
        for (unsigned i = 0; i < cfg.credSprayProcesses; ++i)
            m.kernel().createProcess(/*uid=*/1000, /*lightweight=*/true);
        p.spray = std::make_unique<pth::SprayManager>(m, cfg);
        Cycles sprayCycles = p.spray->spray();
        p.report.sprayMs = m.seconds(sprayCycles) * 1e3;
    }
    {
        Tracer::Scope span(t, "attack.tlb_eviction.prepare", &m);
        p.tlb = std::make_unique<pth::TlbEvictionTool>(m, cfg);
        Cycles tlbCycles = p.tlb->prepare();
        p.report.tlbPrepMs = m.seconds(tlbCycles) * 1e3;
        pth::KernelModule module(m);
        unsigned minimal = p.tlb->findMinimalSetSize(
            p.spray->randomTarget(0x7001), module);
        p.tlb->setWorkingSetSize(minimal + cfg.tlbSetSizeMargin);
    }
    {
        Tracer::Scope span(t, "attack.eviction_pool.build", &m);
        p.pool = std::make_unique<pth::LlcEvictionPool>(m, cfg);
        Cycles bufferCycles = p.pool->allocateBuffer();
        pth::PoolBuildReport build =
            cfg.superpages
                ? p.pool->buildSuperpage(cfg.superpageSampleClasses)
                : p.pool->buildRegularSampled(cfg.regularSampleClasses,
                                              cfg.regularSampleGroups);
        p.report.llcPrepMinutes =
            m.seconds(bufferCycles + build.extrapolatedCycles) / 60.0;
        extras.conflictTests = build.conflictTests;
        extras.lineAccesses = build.lineAccesses;
    }

    p.selector = std::make_unique<pth::EvictionSetSelector>(m, cfg, *p.pool,
                                                            *p.tlb);
    p.pairs = std::make_unique<pth::PairFinder>(m, cfg, *p.spray, *p.tlb,
                                                *p.selector);
    p.hammer = std::make_unique<pth::ImplicitHammer>(m, cfg);
    p.checker = std::make_unique<pth::FlipChecker>(m, cfg, *p.spray);
    p.exploit = std::make_unique<pth::Exploit>(m, cfg, *p.spray);
}

std::optional<pth::HammerPair>
tracedNext(Tracer &t, Machine &m, Prepared &p)
{
    Tracer::Scope span(t, "attack.pair_finder.next", &m);
    return p.pairs->next();
}

/** PThammerAttack::run() after prepare, call for call. */
void
tracedPthammer(Tracer &t, Machine &m, const AttackConfig &cfg, Prepared &p,
               RunResult &res)
{
    pth::AttackReport &report = p.report;
    pth::RunningStat tlbSelect;
    pth::RunningStat llcSelect;
    pth::RunningStat hammerTime;
    pth::RunningStat checkTime;

    Cycles loopStart = m.clock().now();
    Cycles budget = m.config().cycles(cfg.hammerBudgetSeconds);

    while (report.attempts < cfg.maxAttempts &&
           m.clock().now() - loopStart < budget) {
        Tracer::Scope attempt(t, "attack.attempt", &m);
        auto pair = tracedNext(t, m, p);
        if (!pair)
            break;
        ++report.attempts;
        tlbSelect.sample(m.seconds(pair->tlbSelectCycles) * 1e6);
        llcSelect.sample(m.seconds(pair->llcSelectCycles / 2) * 1e3);

        pth::HammerRunResult hr;
        {
            Tracer::Scope span(t, "attack.implicit_hammer.run", &m);
            hr = p.hammer->run(*pair, cfg.hammerIterations);
        }
        hammerTime.sample(m.seconds(hr.totalCycles) * 1e3);

        Cycles checkStart = m.clock().now();
        std::vector<pth::FlipFinding> findings;
        {
            Tracer::Scope span(t, "attack.flip_checker.check", &m);
            findings = p.checker->check();
        }
        checkTime.sample(m.seconds(m.clock().now() - checkStart));

        for (const pth::FlipFinding &finding : findings) {
            ++report.flipsObserved;
            if (!report.flipped) {
                report.flipped = true;
                report.timeToFirstFlipMinutes =
                    m.seconds(m.clock().now() - loopStart) / 60.0;
            }
            pth::ExploitOutcome outcome;
            {
                Tracer::Scope span(t, "attack.exploit.attempt", &m);
                outcome = p.exploit->attempt(finding);
            }
            if (outcome.escalated) {
                report.escalated = true;
                report.flipsUntilEscalation = report.flipsObserved;
                report.exploitPath = pth::exploitPathName(outcome.path);
                break;
            }
        }
        if (report.escalated)
            break;
    }

    report.tlbSelectMicros = tlbSelect.mean();
    report.llcSelectMs = llcSelect.mean();
    report.hammerMs = hammerTime.mean();
    report.checkSeconds = checkTime.mean();
    if (!report.flipped)
        report.timeToFirstFlipMinutes =
            m.seconds(m.clock().now() - loopStart) / 60.0;

    res.report = report;
    res.flipped = report.flipped;
    res.escalated = report.escalated;
    res.flips = report.flipsObserved;
    res.attempts = report.attempts;
    res.flipsUntilEscalation = report.flipsUntilEscalation;
    res.exploitPath = report.exploitPath;
}

/** Campaign's runImplicit after prepare, call for call. */
void
tracedImplicit(Tracer &t, Machine &m, const AttackConfig &cfg, Prepared &p,
               RunResult &res)
{
    res.report = p.report;
    Tracer::Scope attempt(t, "attack.attempt", &m);
    auto pair = tracedNext(t, m, p);
    if (!pair)
        return;
    res.attempts = 1;
    pth::HammerRunResult hr;
    {
        Tracer::Scope span(t, "attack.implicit_hammer.run", &m);
        hr = p.hammer->run(*pair, cfg.hammerIterations);
    }
    res.flips = hr.flips;
    res.flipped = hr.flips > 0;
    res.report.flipped = res.flipped;
    res.report.hammerMs = m.seconds(hr.totalCycles) * 1e3;
}

/** Campaign's runMultiHart after prepare, call for call. */
void
tracedMultiHart(Tracer &t, Machine &m, const RunSpec &spec,
                const AttackConfig &cfg, Prepared &p, RunResult &res)
{
    res.report = p.report;
    pth::MultiHartHammer hammer(m, cfg, spec.interleave,
                                spec.interleaveSeed);
    const unsigned reserved = std::min(cfg.victimHarts, m.hartCount() - 1);
    const unsigned batchPairs = m.hartCount() - reserved;

    const double startSeconds = m.seconds();
    pth::MultiHartHammerResult r;
    Cycles hammered = 0;
    while (res.attempts < cfg.maxAttempts &&
           m.seconds() - startSeconds < cfg.hammerBudgetSeconds) {
        Tracer::Scope attempt(t, "attack.attempt", &m);
        std::vector<pth::HammerPair> pairs;
        {
            Tracer::Scope span(t, "attack.multi_hammer.select_pairs", &m);
            pairs = hammer.selectPairs(*p.pairs, batchPairs);
        }
        if (pairs.empty())
            break;
        {
            Tracer::Scope span(t, "attack.multi_hammer.run", &m);
            r = hammer.run(pairs, cfg.hammerIterations);
        }
        hammered += r.totalCycles;
        res.attempts += r.aggressors;
        res.flips += r.flips;
        if (r.flips > 0)
            break;
    }
    res.flipped = res.flips > 0;
    res.report.flipped = res.flipped;
    res.report.hammerMs = m.seconds(hammered) * 1e3;
    res.metrics.emplace_back("aggressorHarts", r.aggressors);
    res.metrics.emplace_back("victimHarts", r.victims);
    res.metrics.emplace_back("meanRoundCycles", r.meanRoundCycles);
    res.metrics.emplace_back("stackedActsPerWindow", r.stackedActsPerWindow);
    res.metrics.emplace_back("victimMeanLatency", r.victimMeanLatency);
}

} // namespace

const Recorded *
Workload::recordFor(std::uint64_t seed) const
{
    return recorded.seed == seed ? &recorded : nullptr;
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"t420_superpage",
         t420Superpage,
         {0,
          {
              {"ok", "true"},
              {"error", ""},
              {"flipped", "false"},
              {"escalated", "false"},
              {"flips", "0"},
              {"attempts", "16"},
              {"flips_until_escalation", "0"},
              {"exploit_path", "none"},
              {"sim_s", "88.971703957692313"},
              {"report.machine", "Lenovo T420"},
              {"report.defense", "none"},
              {"report.superpages", "true"},
              {"report.spray_ms", "2078.0130769230773"},
              {"report.tlb_prep_ms", "11.026330000000002"},
              {"report.llc_prep_min", "0.049646360333333334"},
              {"report.tlb_select_us", "1"},
              {"report.llc_select_ms", "279.67318509615382"},
              {"report.hammer_ms", "351.29707516826932"},
              {"report.check_s", "4.336265058461537"},
              {"report.time_to_flip_min", "1.4457169273653847"},
              {"report.flipped", "false"},
              {"report.escalated", "false"},
              {"report.attempts", "16"},
              {"report.flips_observed", "0"},
              {"report.exploit_path", "none"},
          },
          "2757d5f3158b6a23"}},
        {"multihart4_trr",
         multihart4Trr,
         {0,
          {
              {"ok", "true"},
              {"error", ""},
              {"flipped", "false"},
              {"escalated", "false"},
              {"flips", "0"},
              {"attempts", "16"},
              {"flips_until_escalation", "0"},
              {"exploit_path", "none"},
              {"sim_s", "48.746112553499998"},
              {"report.machine", "test-small"},
              {"report.defense", "none"},
              {"report.superpages", "true"},
              {"report.spray_ms", "31.6585"},
              {"report.tlb_prep_ms", "14.3915715"},
              {"report.llc_prep_min", "0.036122176833333332"},
              {"report.tlb_select_us", "0"},
              {"report.llc_select_ms", "0"},
              {"report.hammer_ms", "3284.1687725000002"},
              {"report.check_s", "0"},
              {"report.time_to_flip_min", "0"},
              {"report.flipped", "false"},
              {"report.escalated", "false"},
              {"report.attempts", "0"},
              {"report.flips_observed", "0"},
              {"report.exploit_path", "none"},
              {"metric.aggressorHarts", "4"},
              {"metric.victimHarts", "0"},
              {"metric.meanRoundCycles", "1664.4166666666667"},
              {"metric.stackedActsPerWindow", "615230.56125769787"},
              {"metric.victimMeanLatency", "0"},
          },
          "5a61b6119f50dab6"}},
        {"t420_detailed_hammer",
         t420DetailedHammer,
         {0,
          {
              {"ok", "true"},
              {"error", ""},
              {"flipped", "false"},
              {"escalated", "false"},
              {"flips", "0"},
              {"attempts", "1"},
              {"flips_until_escalation", "0"},
              {"exploit_path", "none"},
              {"sim_s", "2.9653075411538463"},
              {"report.machine", "Lenovo T420"},
              {"report.defense", "none"},
              {"report.superpages", "false"},
              {"report.spray_ms", "2078.0130769230773"},
              {"report.tlb_prep_ms", "11.026330000000002"},
              {"report.llc_prep_min", "2.3421336092884615"},
              {"report.tlb_select_us", "0"},
              {"report.llc_select_ms", "0"},
              {"report.hammer_ms", "34.98998692307692"},
              {"report.check_s", "0"},
              {"report.time_to_flip_min", "0"},
              {"report.flipped", "false"},
              {"report.escalated", "false"},
              {"report.attempts", "0"},
              {"report.flips_observed", "0"},
              {"report.exploit_path", "none"},
          },
          "5b20cd7e6ae71e65"}},
    };
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

Outputs
outputsOf(const RunResult &r)
{
    const pth::AttackReport &rep = r.report;
    Outputs out = {
        {"ok", exact(r.ok)},
        {"error", r.error},
        {"flipped", exact(r.flipped)},
        {"escalated", exact(r.escalated)},
        {"flips", exact(r.flips)},
        {"attempts", exact(std::uint64_t{r.attempts})},
        {"flips_until_escalation",
         exact(std::uint64_t{r.flipsUntilEscalation})},
        {"exploit_path", r.exploitPath},
        {"sim_s", exact(r.simSeconds)},
        {"report.machine", rep.machine},
        {"report.defense", rep.defense},
        {"report.superpages", exact(rep.superpages)},
        {"report.spray_ms", exact(rep.sprayMs)},
        {"report.tlb_prep_ms", exact(rep.tlbPrepMs)},
        {"report.llc_prep_min", exact(rep.llcPrepMinutes)},
        {"report.tlb_select_us", exact(rep.tlbSelectMicros)},
        {"report.llc_select_ms", exact(rep.llcSelectMs)},
        {"report.hammer_ms", exact(rep.hammerMs)},
        {"report.check_s", exact(rep.checkSeconds)},
        {"report.time_to_flip_min", exact(rep.timeToFirstFlipMinutes)},
        {"report.flipped", exact(rep.flipped)},
        {"report.escalated", exact(rep.escalated)},
        {"report.attempts", exact(std::uint64_t{rep.attempts})},
        {"report.flips_observed", exact(std::uint64_t{rep.flipsObserved})},
        {"report.exploit_path", rep.exploitPath},
    };
    for (const auto &metric : r.metrics)
        out.emplace_back("metric." + metric.first, exact(metric.second));
    return out;
}

std::vector<std::string>
mismatches(const Outputs &expected, const Outputs &got)
{
    std::map<std::string, std::string> have(got.begin(), got.end());
    std::vector<std::string> diff;
    for (const auto &field : expected) {
        auto it = have.find(field.first);
        if (it == have.end() || it->second != field.second)
            diff.push_back(field.first);
        if (it != have.end())
            have.erase(it);
    }
    for (const auto &extra : have)
        diff.push_back(extra.first);
    return diff;
}

void
setupBody(Machine &machine, const AttackConfig &attack, RunResult &result)
{
    pth::PThammerAttack attackRun(machine, attack);
    attackRun.prepare();
    result.report = attackRun.prepReport();
}

RunResult
tracedRun(const RunSpec &base, Tracer &t, TracedExtras &extras,
          bool fingerprint)
{
    RunSpec spec = base;
    t.beginRun();
    const int root = t.open("run");
    const double callStart = t.now();
    double bodyEnd = 0;
    spec.body = [&t, &extras, &base, callStart, fingerprint,
                 &bodyEnd](Machine &m, const AttackConfig &cfg,
                           RunResult &res) {
        t.add("harness.boot", callStart, t.now());
        auto p = std::make_unique<Prepared>();
        tracedPrepare(t, m, cfg, *p, extras);
        switch (base.strategy) {
        case pth::HammerStrategy::PThammer:
            tracedPthammer(t, m, cfg, *p, res);
            break;
        case pth::HammerStrategy::Implicit:
            tracedImplicit(t, m, cfg, *p, res);
            break;
        case pth::HammerStrategy::MultiHart:
            tracedMultiHart(t, m, base, cfg, *p, res);
            break;
        case pth::HammerStrategy::Explicit:
            throw std::runtime_error("no traced replica of the explicit"
                                     " strategy");
        }
        extras.total = Counters::read(m);
        extras.pairsTried = p->pairs->candidatesTried();
        extras.pairsAccepted = p->pairs->accepted();
        extras.pairsHammered = res.attempts;
        if (fingerprint) {
            Tracer::Scope span(t, "trace.fingerprint");
            extras.fingerprint = m.stateFingerprint();
        }
        {
            Tracer::Scope span(t, "attack.teardown");
            p.reset();
        }
        bodyEnd = t.now();
    };
    RunResult result = pth::Campaign::runOne(spec, 0);
    // The rest of runOne: mostly destroying the machine.
    if (result.ok)
        t.add("harness.teardown", bodyEnd, t.now());
    t.close(root);
    return result;
}

} // namespace perfbench
