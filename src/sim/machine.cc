/**
 * @file
 * Multicore machine model implementation.
 */

#include "sim/machine.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "core/check.hh"

namespace rbv::sim {

namespace {

/** Instructions below this are treated as retired. */
constexpr double InsEpsilon = 1e-6;

/** Cycles below this are treated as elapsed. */
constexpr double CycleEpsilon = 1e-6;

/** Fixed-point iterations for the CPI / memory-latency solve. */
constexpr int CpiSolveIterations = 6;

} // namespace

Machine::Machine(const MachineConfig &cfg, EventQueue &eq,
                 CoreClient *client)
    : cfg(cfg), eq(eq), client(client), cores(cfg.numCores),
      memory(cfg.memory), memLatency(cfg.memory.baseLatencyCycles),
      lastSync(eq.now())
{
    RBV_CHECK(cfg.numCores > 0);
    RBV_CHECK(cfg.coresPerL2Domain > 0);
    RBV_CHECK(cfg.l2CapacityBytes > 0.0);
    const int domains =
        (cfg.numCores + cfg.coresPerL2Domain - 1) / cfg.coresPerL2Domain;
    domainInsertion.assign(domains, 0.0);
    rateKey.resize(RateKeyFields * cores.size());
    const auto per_domain =
        static_cast<std::size_t>(std::min(cfg.coresPerL2Domain,
                                          cfg.numCores));
    fill.runners.resize(per_domain);
    fill.weights.resize(per_domain);
    fill.wsets.resize(per_domain);
    fill.targets.resize(per_domain);
    fill.capped.resize(per_domain);

    if (cfg.modelRefreshIntervalCycles > 0) {
        eq.scheduleIn(cfg.modelRefreshIntervalCycles, [this] {
            refreshFired();
        });
    }
}

double
Machine::fixedCyclesPending(const CoreState &c)
{
    double total = 0.0;
    for (const auto &fw : c.fixedQueue)
        total += fw.cycles;
    return total;
}

void
Machine::advanceCore(CoreState &c, int domain, double dt)
{
    double left = dt;
    double busyCycles = 0.0;

    // Drain fixed work first. Fixed work is contention-immune: its
    // events accrue linearly over its cycle budget, and the thread's
    // regular footprint decays under co-runner pressure meanwhile.
    while (left > CycleEpsilon && !c.fixedQueue.empty()) {
        FixedWork &fw = c.fixedQueue.front();
        const double take = std::min(left, fw.cycles);
        const double frac = fw.cycles > 0.0 ? take / fw.cycles : 1.0;

        const double ins = fw.instructions * frac;
        const double refs = fw.l2Refs * frac;
        const double misses = fw.l2Misses * frac;
        c.counters.accrue(take, ins, refs, misses);
        domainInsertion[domain] += misses * CacheLineBytes;

        c.occupancy = advanceOccupancy(c.occupancy, c.targetOcc, 0.0,
                                       c.coPressure, cfg.l2CapacityBytes,
                                       take);

        fw.cycles -= take;
        fw.instructions -= ins;
        fw.l2Refs -= refs;
        fw.l2Misses -= misses;
        if (fw.cycles <= CycleEpsilon)
            c.fixedQueue.pop_front();

        left -= take;
        busyCycles += take;
    }

    // Regular work for the remainder of the window.
    if (left > CycleEpsilon && c.busy) {
        double ins = c.insPerCycle * left;
        ins = std::min(ins, c.insRemaining);
        const double refs = ins * c.params.refsPerIns;
        const double misses = refs * c.missRatio;
        c.counters.accrue(left, ins, refs, misses);
        domainInsertion[domain] += misses * CacheLineBytes;

        c.occupancy = advanceOccupancy(
            c.occupancy, c.targetOcc, c.fillBytesPerCycle, c.coPressure,
            cfg.l2CapacityBytes, left);

        c.insRemaining -= ins;
        if (c.insRemaining < InsEpsilon)
            c.insRemaining = 0.0;
        busyCycles += left;
    }

    // The cache model must never report more resident bytes than the
    // domain holds, and instruction debt can never go negative.
    RBV_DCHECK(c.occupancy >= 0.0 &&
                   c.occupancy <= cfg.l2CapacityBytes * (1.0 + 1e-9),
               "occupancy " << c.occupancy << " outside [0, "
                            << cfg.l2CapacityBytes << "]");
    RBV_DCHECK(c.insRemaining >= 0.0);

    if (c.timerArmed) {
        c.timerRemaining -= busyCycles;
        if (c.timerRemaining < 0.0)
            c.timerRemaining = 0.0;
    }
}

void
Machine::resync()
{
    const Tick now = eq.now();
    if (now == lastSync)
        return;
    RBV_CHECK(now > lastSync,
              "resync would move time backwards: now="
                  << now << " lastSync=" << lastSync);
    const double dt = static_cast<double>(now - lastSync);
    for (CoreId i = 0; i < cfg.numCores; ++i)
        advanceCore(cores[i], domainOf(i), dt);
    lastSync = now;
}

void
Machine::recomputeRates()
{
    const int num_domains = static_cast<int>(domainInsertion.size());

    // Pass 1: per-domain occupancy targets by demand-weighted
    // water-filling, with demand approximated by each runner's L2
    // reference pressure (references per cycle at its current CPI).
    for (int d = 0; d < num_domains; ++d) {
        std::size_t n = 0;
        for (CoreId i = domainBegin(d); i < domainEnd(d); ++i) {
            const auto &c = cores[i];
            if (!c.busy)
                continue;
            const double cpi = c.effCpi > 0.0 ? c.effCpi
                                              : c.params.baseCpi;
            fill.runners[n] = i;
            fill.weights[n] = c.params.refsPerIns / cpi;
            fill.wsets[n] = c.params.curve.workingSetBytes;
            ++n;
        }
        waterFillTargets(cfg.l2CapacityBytes,
                         std::span(fill.weights.data(), n),
                         std::span(fill.wsets.data(), n),
                         std::span(fill.targets.data(), n),
                         std::span(fill.capped.data(), n));
        for (std::size_t k = 0; k < n; ++k)
            cores[fill.runners[k]].targetOcc = fill.targets[k];
    }

    // Passes 2-4 are a pure function of the memo key: on the same
    // input they would rewrite the outputs with the values they hold.
    if (!rateInputChanged() && rateKeyValid)
        return;

    // Pass 2: miss ratios from current occupancies.
    for (CoreId i = 0; i < cfg.numCores; ++i) {
        auto &c = cores[i];
        if (c.busy)
            c.missRatio = c.params.curve.missRatioAt(c.occupancy);
        else
            c.missRatio = 0.0;
    }

    // Pass 3: fixed-point solve of the coupled CPI / memory-latency
    // system. More aggregate miss bandwidth raises the effective miss
    // latency, which slows every core down, which lowers bandwidth:
    // a contraction that converges in a few iterations.
    for (CoreId i = 0; i < cfg.numCores; ++i) {
        auto &c = cores[i];
        if (c.busy && c.effCpi <= 0.0)
            c.effCpi = c.params.baseCpi;
    }
    double lat = memLatency;
    for (int it = 0; it < CpiSolveIterations; ++it) {
        double miss_bw = 0.0;
        for (CoreId i = 0; i < cfg.numCores; ++i) {
            const auto &c = cores[i];
            if (!c.busy)
                continue;
            const double refs_per_cycle =
                c.params.refsPerIns / std::max(c.effCpi, 1e-9);
            miss_bw += refs_per_cycle * c.missRatio * CacheLineBytes;
        }
        const double next = memory.latencyAt(miss_bw);
        // The CPIs are a function of the latency alone, so a latency
        // equal to the last iteration's would give its CPIs again,
        // and every later iteration would too: the remaining
        // iterations are exact no-ops.
        if (it > 0 && std::bit_cast<std::uint64_t>(next) ==
                          std::bit_cast<std::uint64_t>(lat))
            break;
        lat = next;
        for (CoreId i = 0; i < cfg.numCores; ++i) {
            auto &c = cores[i];
            if (!c.busy)
                continue;
            c.effCpi = c.params.baseCpi +
                       c.params.refsPerIns *
                           ((1.0 - c.missRatio) *
                                cfg.l2HitLatencyCycles +
                            c.missRatio * lat);
        }
    }
    memLatency = lat;
    // The key holds the CPIs this solve started from. setWork() can
    // re-seed a CPI to exactly that value after the solve moved it,
    // so a matching key proves the outputs current only if the solve
    // left every CPI where it started.
    rateKeyValid = !rateInputChanged();

    // Pass 4: derived fill rates and co-runner pressure.
    for (CoreId i = 0; i < cfg.numCores; ++i) {
        auto &c = cores[i];
        if (!c.busy) {
            c.insPerCycle = 0.0;
            c.fillBytesPerCycle = 0.0;
            continue;
        }
        c.insPerCycle = 1.0 / std::max(c.effCpi, 1e-9);
        c.fillBytesPerCycle = c.params.refsPerIns * c.insPerCycle *
                              c.missRatio * CacheLineBytes;
    }
    for (CoreId i = 0; i < cfg.numCores; ++i) {
        auto &c = cores[i];
        c.coPressure = 0.0;
        const int d = domainOf(i);
        for (CoreId j = domainBegin(d); j < domainEnd(d); ++j) {
            if (j != i)
                c.coPressure += cores[j].fillBytesPerCycle;
        }
    }
}

bool
Machine::rateInputChanged()
{
    bool changed = false;
    double *key = rateKey.data();
    const auto put = [&](double v) {
        changed |= std::bit_cast<std::uint64_t>(*key) !=
                   std::bit_cast<std::uint64_t>(v);
        *key++ = v;
    };
    for (const auto &c : cores) {
        // An idle core's outputs do not depend on its other fields,
        // and it adds nothing to the others' solve.
        if (!c.busy) {
            for (std::size_t f = 0; f < RateKeyFields; ++f)
                put(0.0);
            continue;
        }
        put(1.0);
        put(c.occupancy);
        put(c.effCpi);
        put(c.params.baseCpi);
        put(c.params.refsPerIns);
        put(c.params.curve.workingSetBytes);
        put(c.params.curve.baseMissRatio);
        put(c.params.curve.exponent);
    }
    return changed;
}

Tick
Machine::tickAfter(double cycles) const
{
    // The cast below is undefined for NaN, infinity, negatives and
    // anything past the end of time.
    const double span = std::ceil(cycles);
    RBV_CHECK(span >= 0.0 && span < 0x1p64,
              "event " << cycles << " cycles ahead is not a tick");
    const auto ticks = static_cast<Tick>(span);
    RBV_CHECK(ticks <= std::numeric_limits<Tick>::max() - eq.now(),
              "event " << cycles << " cycles ahead is not a tick");
    return eq.now() + ticks;
}

void
Machine::scheduleBoundaries()
{
    // Each event keeps its callback, so it moves in place when
    // pending (EventQueue::reschedule). The order, boundary then
    // timer core by core, is the order of their sequence numbers.
    for (CoreId i = 0; i < cfg.numCores; ++i) {
        auto &c = cores[i];

        const double fixed = fixedCyclesPending(c);
        double completion = -1.0; // cycles until busy work retires
        if (c.busy) {
            completion = fixed + c.insRemaining /
                                     std::max(c.insPerCycle, 1e-12);
        } else if (fixed > 0.0) {
            completion = fixed;
        }

        if (completion >= 0.0) {
            c.boundaryEv = eq.reschedule(c.boundaryEv,
                                         tickAfter(completion),
                                         [this, i] { boundaryFired(i); });
        } else if (c.boundaryEv != InvalidEventId) {
            eq.cancel(c.boundaryEv);
            c.boundaryEv = InvalidEventId;
        }

        // The timer counts non-halt cycles; while the core stays busy
        // they track wall time 1:1. If the timer would fire after the
        // next boundary, the boundary's rescheduling pass re-examines
        // it.
        const double busy_horizon = completion >= 0.0 ? completion : 0.0;
        if (c.timerArmed && (c.timerRemaining <= busy_horizon ||
                             (c.busy && completion < 0.0))) {
            c.timerEv = eq.reschedule(c.timerEv,
                                      tickAfter(c.timerRemaining),
                                      [this, i] { timerFired(i); });
        } else if (c.timerEv != InvalidEventId) {
            eq.cancel(c.timerEv);
            c.timerEv = InvalidEventId;
        }
    }
}

void
Machine::boundaryFired(CoreId core)
{
    resync();
    auto &c = cores[core];
    c.boundaryEv = InvalidEventId;

    const bool completed = c.busy && c.insRemaining <= 0.0 &&
                           c.fixedQueue.empty();
    if (completed) {
        c.busy = false;
        recomputeRates();
        if (client)
            client->onWorkComplete(core);
    }

    recomputeRates();
    scheduleBoundaries();
}

void
Machine::timerFired(CoreId core)
{
    resync();
    auto &c = cores[core];
    c.timerEv = InvalidEventId;

    if (!c.timerArmed || c.timerRemaining > CycleEpsilon) {
        // Stale or rescheduled; boundary passes will re-arm.
        recomputeRates();
        scheduleBoundaries();
        return;
    }

    c.timerArmed = false;
    auto cb = std::move(c.timerCb);
    c.timerCb = nullptr;
    if (cb)
        cb();

    recomputeRates();
    scheduleBoundaries();
}

void
Machine::refreshFired()
{
    resync();
    recomputeRates();
    scheduleBoundaries();
    eq.scheduleIn(cfg.modelRefreshIntervalCycles, [this] { refreshFired(); });
}

void
Machine::setWork(CoreId core, const WorkParams &params,
                 double instructions)
{
    RBV_CHECK(core >= 0 && core < cfg.numCores);
    RBV_CHECK(params.baseCpi > 0.0,
              "work with non-positive base CPI " << params.baseCpi);
    resync();
    auto &c = cores[core];
    c.busy = instructions > 0.0;
    c.params = params;
    c.insRemaining = std::max(instructions, 0.0);
    c.effCpi = params.baseCpi; // seed for the fixed-point solve
    recomputeRates();
    scheduleBoundaries();
}

void
Machine::clearWork(CoreId core)
{
    resync();
    auto &c = cores[core];
    c.busy = false;
    c.insRemaining = 0.0;
    recomputeRates();
    scheduleBoundaries();
}

double
Machine::insRemaining(CoreId core)
{
    resync();
    return cores[core].insRemaining;
}

void
Machine::pushFixedWork(CoreId core, const FixedWork &work)
{
    RBV_CHECK(core >= 0 && core < cfg.numCores);
    RBV_DCHECK(work.cycles >= 0.0 && work.instructions >= 0.0 &&
                   work.l2Refs >= 0.0 && work.l2Misses >= 0.0,
               "negative fixed-work bundle");
    resync();
    if (work.cycles > 0.0)
        cores[core].fixedQueue.push_back(work);
    else
        cores[core].counters.accrue(0.0, work.instructions, work.l2Refs,
                                    work.l2Misses);
    recomputeRates();
    scheduleBoundaries();
}

double
Machine::occupancy(CoreId core)
{
    resync();
    return cores[core].occupancy;
}

void
Machine::setOccupancy(CoreId core, double bytes)
{
    RBV_CHECK(core >= 0 && core < cfg.numCores);
    // Oversized restores are clamped to capacity (documented
    // contract); only a nonsensical footprint is a caller bug.
    RBV_CHECK(std::isfinite(bytes) && bytes >= 0.0,
              "footprint " << bytes << " is not a byte count");
    resync();
    cores[core].occupancy =
        std::clamp(bytes, 0.0, cfg.l2CapacityBytes);
    recomputeRates();
    scheduleBoundaries();
}

double
Machine::domainInsertionIntegral(CoreId core)
{
    resync();
    return domainInsertion[domainOf(core)];
}

const PerfCounters &
Machine::counters(CoreId core)
{
    resync();
    return cores[core].counters;
}

PerfCounters &
Machine::programCounters(CoreId core)
{
    resync();
    return cores[core].counters;
}

void
Machine::armCycleTimer(CoreId core, double cycles,
                       std::function<void()> cb)
{
    resync();
    auto &c = cores[core];
    c.timerArmed = true;
    c.timerRemaining = std::max(cycles, 0.0);
    c.timerCb = std::move(cb);
    scheduleBoundaries();
}

void
Machine::disarmCycleTimer(CoreId core)
{
    resync();
    auto &c = cores[core];
    c.timerArmed = false;
    c.timerCb = nullptr;
    if (c.timerEv != InvalidEventId) {
        eq.cancel(c.timerEv);
        c.timerEv = InvalidEventId;
    }
}

} // namespace rbv::sim
