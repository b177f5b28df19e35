#include "fi/session.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/check.hh"
#include "obs/obs.hh"
#include "sim/machine.hh"

namespace rbv::fi {

namespace {

/** Derive an independent RNG stream seed for one injector. */
std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t salt)
{
    stats::SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ULL * (salt + 1)));
    return sm.next();
}

} // namespace

FaultSession::FaultSession(const FaultPlan &plan_, std::uint64_t seed_)
    : plan(plan_),
      seed(seed_),
      irqDrop(plan.find(FaultKind::IrqDrop)),
      irqCoalesce(plan.find(FaultKind::IrqCoalesce)),
      ctrSaturate(plan.find(FaultKind::CtrSaturate)),
      ctrCorrupt(plan.find(FaultKind::CtrCorrupt)),
      coreSlow(plan.find(FaultKind::CoreSlow)),
      reqStuck(plan.find(FaultKind::ReqStuck)),
      sysStall(plan.find(FaultKind::SysStall)),
      ctxLoss(plan.find(FaultKind::CtxLoss)),
      irqRng(streamSeed(seed_, 1)),
      ctrRng(streamSeed(seed_, 2)),
      sysRng(streamSeed(seed_, 3)),
      ctxRng(streamSeed(seed_, 4))
{
}

void FaultSession::attach(os::Kernel &kernel_)
{
    kernel = &kernel_;
    saturationLogged.assign(
        static_cast<std::size_t>(kernel_.machine().numCores()), false);
    kernel_.setFaults(this);
}

void FaultSession::start()
{
    RBV_CHECK(kernel != nullptr, "FaultSession::start() before attach()");
    if (coreSlow == nullptr)
        return;

    auto &machine = kernel->machine();
    // param() returns only values inside the declared ranges
    // (fi/plan.cc), so these casts are defined.
    auto core = static_cast<sim::CoreId>(coreSlow->param("core", 0.0));
    if (core >= machine.numCores())
        core = 0;
    const sim::Tick fromTick =
        sim::msToCycles(coreSlow->param("from-ms", 1.0));
    const sim::Tick durTicks =
        sim::msToCycles(coreSlow->param("for-ms", 50.0));
    const double frac = coreSlow->param("frac", 0.5);
    if (durTicks == 0 || frac <= 0.0)
        return;

    // The noisy neighbor steals `frac` of the core in 100 us slices:
    // each slice injects a pure-cycle stall (no instructions, no L2
    // traffic of its own), modeling an alien co-runner.
    const auto intervalTicks =
        static_cast<sim::Tick>(sim::usToCycles(100.0));
    const sim::Tick beginTick = std::max(fromTick, now());
    record(FaultKind::CoreSlow, core, frac);
    kernel->eventQueue().scheduleIn(
        beginTick - now(),
        [this, core, beginTick, durTicks, intervalTicks, frac] {
            slowTick(core, beginTick + durTicks, intervalTicks,
                     frac * static_cast<double>(intervalTicks));
        });
}

void FaultSession::slowTick(sim::CoreId core, sim::Tick endTick,
                            sim::Tick intervalTicks, double stallCycles)
{
    kernel->machine().pushFixedWork(
        core, sim::FixedWork{stallCycles, 0.0, 0.0, 0.0});
    // Log each distinct request caught on the slowed core once: the
    // exact victim set for the diagnosis ground truth (requests on
    // other cores merely share the window, they are not slowed).
    if (const std::int64_t victim = victimOn(core);
        victim >= 0 && slowVictims.insert(victim).second)
        record(FaultKind::CoreSlow, core, stallCycles, victim);
    if (now() + intervalTicks >= endTick)
        return;
    kernel->eventQueue().scheduleIn(
        intervalTicks, [this, core, endTick, intervalTicks, stallCycles] {
            slowTick(core, endTick, intervalTicks, stallCycles);
        });
}

core::IrqFate FaultSession::onCounterIrq(sim::CoreId core)
{
    const double pDrop = irqDrop != nullptr ? irqDrop->param("p", 0.1) : 0.0;
    const double pCoalesce =
        irqCoalesce != nullptr ? irqCoalesce->param("p", 0.1) : 0.0;
    if (pDrop <= 0.0 && pCoalesce <= 0.0)
        return core::IrqFate::Deliver;
    const double u = irqRng.uniform();
    if (u < pDrop) {
        record(FaultKind::IrqDrop, core, 1.0);
        return core::IrqFate::Drop;
    }
    if (u < pDrop + pCoalesce) {
        record(FaultKind::IrqCoalesce, core, 1.0);
        return core::IrqFate::Coalesce;
    }
    return core::IrqFate::Deliver;
}

bool FaultSession::transformSnapshot(sim::CoreId core,
                                     sim::CounterSnapshot &snap)
{
    bool tampered = false;
    double *fields[] = {&snap.cycles, &snap.instructions, &snap.l2Refs,
                        &snap.l2Misses};

    if (ctrSaturate != nullptr) {
        // Register saturation: reads peg at the cap — the pinned
        // clamp-not-wrap semantics of sim::toCounterRegister, with a
        // configurable (much lower) cap so short runs can hit it.
        const double cap = ctrSaturate->param(
            "cap", static_cast<double>(sim::CounterRegisterMax));
        for (double *f : fields) {
            if (*f > cap) {
                *f = cap;
                tampered = true;
            }
        }
        const auto idx = static_cast<std::size_t>(core);
        if (tampered && idx < saturationLogged.size() &&
            !saturationLogged[idx]) {
            saturationLogged[idx] = true;
            record(FaultKind::CtrSaturate, core, cap);
        }
    }

    if (ctrCorrupt != nullptr) {
        const double p = ctrCorrupt->param("p", 0.001);
        if (p > 0.0 && ctrRng.uniform() < p) {
            // Flip one high-ish bit of one register read: the
            // classic transient-corruption pattern, large enough to
            // matter and realistic enough to poison the next delta.
            double &field = *fields[ctrRng.uniformInt(4)];
            const auto bit = 20 + static_cast<int>(ctrRng.uniformInt(20));
            const std::uint64_t reg =
                sim::toCounterRegister(field) ^ (std::uint64_t{1} << bit);
            field = static_cast<double>(reg);
            // The poisoned delta lands in the period of whatever
            // request is on the core right now — the exact victim
            // the diagnosis ground truth needs.
            record(FaultKind::CtrCorrupt, core,
                   static_cast<double>(bit), victimOn(core));
            tampered = true;
        }
    }
    return tampered;
}

double FaultSession::execMultiplier(os::RequestId request)
{
    if (reqStuck == nullptr || request == os::InvalidRequestId)
        return 1.0;
    const double p = reqStuck->param("p", 0.02);
    const double u =
        unitIntervalHash(seed, 0x51, static_cast<std::uint64_t>(request));
    if (u >= p)
        return 1.0;
    const double mult = reqStuck->param("mult", 4.0);
    if (stuckLogged.insert(request).second)
        record(FaultKind::ReqStuck, request, mult);
    return mult;
}

double FaultSession::syscallStallCycles(os::RequestId request, os::Sys sys)
{
    (void)sys;
    if (sysStall == nullptr)
        return 0.0;
    const double p = sysStall->param("p", 0.01);
    if (p <= 0.0 || sysRng.uniform() >= p)
        return 0.0;
    const double cycles = sysStall->param("cycles", 60000.0);
    if (cycles > 0.0)
        record(FaultKind::SysStall, request, cycles);
    return cycles;
}

bool FaultSession::loseSwitchContext(sim::CoreId core)
{
    if (ctxLoss == nullptr)
        return false;
    const double p = ctxLoss->param("p", 0.05);
    if (p <= 0.0 || ctxRng.uniform() >= p)
        return false;
    record(FaultKind::CtxLoss, core, 1.0);
    return true;
}

void FaultSession::record(FaultKind kind, std::int64_t subject,
                          double magnitude, std::int64_t victim)
{
    injections.push_back(
        Injection{now(), kind, subject, magnitude, victim});
    RBV_COUNT(FiInjections, 1);
}

std::int64_t FaultSession::victimOn(sim::CoreId core) const
{
    if (kernel == nullptr)
        return -1;
    const os::RequestId req = kernel->currentRequest(core);
    return req != os::InvalidRequestId
               ? static_cast<std::int64_t>(req)
               : -1;
}

sim::Tick FaultSession::now() const
{
    return kernel != nullptr ? kernel->now() : 0;
}

std::string formatLog(const std::vector<Injection> &log)
{
    std::ostringstream os;
    for (const auto &inj : log) {
        os << inj.tick << ' ' << faultName(inj.kind) << ' ' << inj.subject
           << ' ' << inj.magnitude << ' ' << inj.victim << '\n';
    }
    return os.str();
}

std::vector<std::int64_t> faultedRequests(const std::vector<Injection> &log)
{
    return faultedRequests(log, FaultKind::ReqStuck);
}

std::vector<std::int64_t> faultedRequests(const std::vector<Injection> &log,
                                          FaultKind kind)
{
    std::vector<std::int64_t> ids;
    for (const auto &inj : log)
        if (inj.kind == kind)
            ids.push_back(inj.subject);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
}

} // namespace rbv::fi
