/**
 * @file
 * Unit tests for the multicore machine execution model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/machine.hh"
#include "stats/rng.hh"

using namespace rbv::sim;

namespace {

constexpr double MiB = 1024.0 * 1024.0;

/** Test client recording work completions. */
struct TestClient : CoreClient
{
    std::vector<CoreId> completions;
    void
    onWorkComplete(CoreId core) override
    {
        completions.push_back(core);
    }
};

/** CPU-bound params with no cache traffic. */
WorkParams
cpuParams(double cpi = 1.0)
{
    WorkParams p;
    p.baseCpi = cpi;
    p.refsPerIns = 0.0;
    return p;
}

/** Cache-hungry params. */
WorkParams
memParams(double ws_mib, double refs = 0.03, double miss = 0.08)
{
    WorkParams p;
    p.baseCpi = 0.8;
    p.refsPerIns = refs;
    p.curve = MissCurve{ws_mib * MiB, miss, 1.0};
    return p;
}

struct Rig
{
    EventQueue eq;
    TestClient client;
    Machine machine;

    explicit Rig(int cores = 4, Tick refresh = 0)
        : machine(makeConfig(cores, refresh), eq, &client)
    {
    }

    static MachineConfig
    makeConfig(int cores, Tick refresh)
    {
        MachineConfig mc;
        mc.numCores = cores;
        mc.coresPerL2Domain = cores >= 2 ? 2 : 1;
        mc.modelRefreshIntervalCycles = refresh;
        return mc;
    }
};

} // namespace

TEST(Machine, CpuBoundWorkTakesCpiCycles)
{
    Rig rig;
    rig.machine.setWork(0, cpuParams(2.0), 1000.0);
    rig.eq.runUntil(1'000'000);
    ASSERT_EQ(rig.client.completions.size(), 1u);
    const auto &snap = rig.machine.counters(0).snapshot();
    EXPECT_NEAR(snap.instructions, 1000.0, 1.0);
    EXPECT_NEAR(snap.cycles, 2000.0, 2.0);
}

TEST(Machine, IdleCoreAccruesNothing)
{
    Rig rig;
    rig.machine.setWork(0, cpuParams(), 1000.0);
    rig.eq.runUntil(1'000'000);
    const auto &snap = rig.machine.counters(1).snapshot();
    EXPECT_EQ(snap.cycles, 0.0);
    EXPECT_EQ(snap.instructions, 0.0);
}

TEST(Machine, L2TrafficAccrues)
{
    Rig rig;
    rig.machine.setWork(0, memParams(1.0, 0.02, 0.1), 100000.0);
    rig.eq.runUntil(100'000'000);
    const auto &snap = rig.machine.counters(0).snapshot();
    EXPECT_NEAR(snap.l2Refs, 2000.0, 10.0);
    EXPECT_GT(snap.l2Misses, 0.0);
    EXPECT_LE(snap.l2Misses, snap.l2Refs);
}

TEST(Machine, EffectiveCpiIncludesMemoryStalls)
{
    Rig rig;
    rig.machine.setWork(0, memParams(2.0, 0.03, 0.1), 1000000.0);
    rig.eq.runUntil(1'000'000'000);
    const auto &snap = rig.machine.counters(0).snapshot();
    const double cpi = snap.cycles / snap.instructions;
    EXPECT_GT(cpi, 0.8); // base alone would be 0.8
}

TEST(Machine, FixedWorkAccountsExactly)
{
    Rig rig;
    rig.machine.pushFixedWork(0, FixedWork{1000.0, 500.0, 20.0, 5.0});
    rig.eq.runUntil(1'000'000);
    const auto &snap = rig.machine.counters(0).snapshot();
    EXPECT_NEAR(snap.cycles, 1000.0, 1.0);
    EXPECT_NEAR(snap.instructions, 500.0, 1.0);
    EXPECT_NEAR(snap.l2Refs, 20.0, 0.1);
    EXPECT_NEAR(snap.l2Misses, 5.0, 0.1);
    // Fixed-only work does not raise onWorkComplete.
    EXPECT_TRUE(rig.client.completions.empty());
}

TEST(Machine, FixedWorkDelaysRegularWork)
{
    Rig rig;
    rig.machine.setWork(0, cpuParams(1.0), 1000.0);
    rig.machine.pushFixedWork(0, FixedWork{5000.0, 100.0, 0.0, 0.0});
    rig.eq.runUntil(1'000'000);
    ASSERT_EQ(rig.client.completions.size(), 1u);
    // Completion requires fixed (5000) + regular (1000) cycles.
    EXPECT_GE(rig.eq.now(), 6000u);
    EXPECT_LE(rig.eq.now(), 6100u);
}

TEST(Machine, ZeroCycleFixedWorkAccruesImmediately)
{
    Rig rig;
    rig.machine.pushFixedWork(0, FixedWork{0.0, 42.0, 7.0, 1.0});
    const auto &snap = rig.machine.counters(0).snapshot();
    EXPECT_DOUBLE_EQ(snap.instructions, 42.0);
}

TEST(Machine, ClearWorkStopsExecution)
{
    Rig rig;
    rig.machine.setWork(0, cpuParams(), 1e9);
    rig.eq.runUntil(1000);
    rig.machine.clearWork(0);
    const double ins_at_clear =
        rig.machine.counters(0).snapshot().instructions;
    rig.eq.runUntil(100000);
    EXPECT_DOUBLE_EQ(rig.machine.counters(0).snapshot().instructions,
                     ins_at_clear);
    EXPECT_TRUE(rig.client.completions.empty());
}

TEST(Machine, InsRemainingTracksProgress)
{
    Rig rig;
    rig.machine.setWork(0, cpuParams(1.0), 10000.0);
    rig.eq.runUntil(4000);
    EXPECT_NEAR(rig.machine.insRemaining(0), 6000.0, 10.0);
}

TEST(Machine, CycleTimerFiresAfterBusyCycles)
{
    Rig rig;
    bool fired = false;
    Tick fire_tick = 0;
    rig.machine.setWork(0, cpuParams(), 1e9);
    rig.machine.armCycleTimer(0, 5000.0, [&] {
        fired = true;
        fire_tick = rig.eq.now();
    });
    rig.eq.runUntil(1'000'000);
    EXPECT_TRUE(fired);
    EXPECT_NEAR(static_cast<double>(fire_tick), 5000.0, 10.0);
}

TEST(Machine, CycleTimerStallsWhileIdle)
{
    Rig rig;
    bool fired = false;
    rig.machine.armCycleTimer(0, 5000.0, [&] { fired = true; });
    rig.eq.runUntil(100000);
    EXPECT_FALSE(fired); // halted core accrues no non-halt cycles

    // Give it work; the timer should now run down.
    rig.machine.setWork(0, cpuParams(), 1e9);
    rig.eq.runUntil(200000);
    EXPECT_TRUE(fired);
}

TEST(Machine, DisarmCycleTimer)
{
    Rig rig;
    bool fired = false;
    rig.machine.setWork(0, cpuParams(), 1e9);
    rig.machine.armCycleTimer(0, 5000.0, [&] { fired = true; });
    rig.eq.runUntil(1000);
    rig.machine.disarmCycleTimer(0);
    rig.eq.runUntil(100000);
    EXPECT_FALSE(fired);
}

TEST(Machine, RearmTimerReplacesPending)
{
    Rig rig;
    int which = 0;
    rig.machine.setWork(0, cpuParams(), 1e9);
    rig.machine.armCycleTimer(0, 5000.0, [&] { which = 1; });
    rig.machine.armCycleTimer(0, 9000.0, [&] { which = 2; });
    rig.eq.runUntil(7000);
    EXPECT_EQ(which, 0);
    rig.eq.runUntil(20000);
    EXPECT_EQ(which, 2);
}

TEST(Machine, CoRunnerRaisesCpiOnSharedCache)
{
    // Solo run of a cache-hungry workload.
    double solo_cpi;
    {
        Rig rig(4, usToCycles(50.0));
        rig.machine.setWork(0, memParams(5.0, 0.04, 0.08), 3e6);
        rig.eq.runUntil(2'000'000'000);
        const auto &s = rig.machine.counters(0).snapshot();
        solo_cpi = s.cycles / s.instructions;
    }
    // Same workload co-running with a cache-hungry neighbor in the
    // same L2 domain (cores 0 and 1 share).
    double shared_cpi;
    {
        Rig rig(4, usToCycles(50.0));
        rig.machine.setWork(0, memParams(5.0, 0.04, 0.08), 3e6);
        rig.machine.setWork(1, memParams(5.0, 0.04, 0.08), 1e9);
        rig.eq.runUntil(2'000'000'000);
        const auto &s = rig.machine.counters(0).snapshot();
        shared_cpi = s.cycles / s.instructions;
    }
    EXPECT_GT(shared_cpi, solo_cpi * 1.1);
}

TEST(Machine, DifferentDomainNoL2Contention)
{
    // A neighbor in the OTHER domain shares only memory bandwidth;
    // with modest bandwidth the CPI penalty must be far smaller than
    // same-domain sharing.
    auto run = [&](CoreId other) {
        Rig rig(4, usToCycles(50.0));
        rig.machine.setWork(0, memParams(5.0, 0.03, 0.06), 3e6);
        if (other >= 0)
            rig.machine.setWork(other, memParams(5.0, 0.03, 0.06),
                                1e9);
        rig.eq.runUntil(2'000'000'000);
        const auto &s = rig.machine.counters(0).snapshot();
        return s.cycles / s.instructions;
    };
    const double solo = run(-1);
    const double cross_domain = run(2);
    const double same_domain = run(1);
    EXPECT_LT(cross_domain - solo, (same_domain - solo) * 0.5);
}

TEST(Machine, SmallWorkingSetImmuneToSharing)
{
    auto run = [&](bool with_neighbor) {
        Rig rig(4, usToCycles(50.0));
        rig.machine.setWork(0, memParams(0.25, 0.008, 0.03), 3e6);
        if (with_neighbor)
            rig.machine.setWork(1, memParams(5.0, 0.04, 0.1), 1e9);
        rig.eq.runUntil(2'000'000'000);
        const auto &s = rig.machine.counters(0).snapshot();
        return s.cycles / s.instructions;
    };
    const double solo = run(false);
    const double shared = run(true);
    EXPECT_LT(shared, solo * 1.25);
}

TEST(Machine, OccupancySaveRestore)
{
    Rig rig;
    rig.machine.setWork(0, memParams(1.0, 0.03, 0.1), 1e8);
    rig.eq.runUntil(50'000'000);
    const double occ = rig.machine.occupancy(0);
    EXPECT_GT(occ, 0.0);
    rig.machine.setOccupancy(0, 1234.0);
    EXPECT_DOUBLE_EQ(rig.machine.occupancy(0), 1234.0);
}

TEST(Machine, OccupancyClampedToCapacity)
{
    Rig rig;
    rig.machine.setOccupancy(0, 1e12);
    EXPECT_DOUBLE_EQ(rig.machine.occupancy(0),
                     rig.machine.config().l2CapacityBytes);
}

TEST(Machine, DomainInsertionIntegralGrowsWithMisses)
{
    Rig rig;
    const double before = rig.machine.domainInsertionIntegral(0);
    rig.machine.setWork(0, memParams(2.0, 0.03, 0.2), 1e6);
    rig.eq.runUntil(1'000'000'000);
    EXPECT_GT(rig.machine.domainInsertionIntegral(0), before);
    // Core 2's domain saw no activity.
    EXPECT_DOUBLE_EQ(rig.machine.domainInsertionIntegral(2), 0.0);
}

TEST(Machine, BackToBackSegments)
{
    Rig rig;
    rig.machine.setWork(0, cpuParams(1.0), 1000.0);
    rig.eq.runUntil(1'000'000);
    ASSERT_EQ(rig.client.completions.size(), 1u);
    rig.machine.setWork(0, cpuParams(2.0), 1000.0);
    rig.eq.runUntil(2'000'000);
    ASSERT_EQ(rig.client.completions.size(), 2u);
    const auto &snap = rig.machine.counters(0).snapshot();
    EXPECT_NEAR(snap.instructions, 2000.0, 2.0);
    EXPECT_NEAR(snap.cycles, 3000.0, 4.0);
}

TEST(Machine, CountersProgrammableSelectors)
{
    Rig rig;
    rig.machine.programCounters(0).program(0, HwEvent::BranchInstructions);
    rig.machine.setWork(0, cpuParams(1.0), 10000.0);
    rig.eq.runUntil(1'000'000);
    const auto &pc = rig.machine.counters(0);
    EXPECT_NEAR(static_cast<double>(pc.general(0)), 10000.0 * 0.18,
                5.0);
    EXPECT_EQ(pc.fixedInstructions(), 10000u);
}

// ------------------------------------------------- rate-solve memo

namespace {

/** One core's input to the rate solve, as a script tracks it. */
struct RefCore
{
    bool busy = false;
    double occupancy = 0.0;
    double seedCpi = 1.0;
    WorkParams params;
};

/** Outputs of the rate solve that the machine exposes. */
struct RefRates
{
    std::vector<double> missRatio, effCpi;
    double memLatency = 0.0;
};

/**
 * Reference copy of Machine::recomputeRates() passes 2-3 (miss
 * ratios and the CPI / memory-latency fixed point), written out
 * again here as the oracle for the memoized solve: the machine must
 * read exactly what a full solve on its current input would give.
 */
RefRates
refSolve(const MachineConfig &mc, const std::vector<RefCore> &cores)
{
    constexpr int Iterations = 6;
    const MemoryModel memory(mc.memory);
    const std::size_t n = cores.size();
    RefRates out;
    out.missRatio.assign(n, 0.0);
    out.effCpi.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const RefCore &c = cores[i];
        if (c.busy)
            out.missRatio[i] = c.params.curve.missRatioAt(c.occupancy);
        out.effCpi[i] = c.busy && c.seedCpi <= 0.0 ? c.params.baseCpi
                                                   : c.seedCpi;
    }
    for (int it = 0; it < Iterations; ++it) {
        double miss_bw = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            if (!cores[i].busy)
                continue;
            const double refs_per_cycle = cores[i].params.refsPerIns /
                                          std::max(out.effCpi[i], 1e-9);
            miss_bw += refs_per_cycle * out.missRatio[i] * CacheLineBytes;
        }
        out.memLatency = memory.latencyAt(miss_bw);
        for (std::size_t i = 0; i < n; ++i) {
            const RefCore &c = cores[i];
            if (!c.busy)
                continue;
            const double m = out.missRatio[i];
            out.effCpi[i] =
                c.params.baseCpi +
                c.params.refsPerIns * ((1.0 - m) * mc.l2HitLatencyCycles +
                                       m * out.memLatency);
        }
    }
    return out;
}

/**
 * Work descriptions for the script. setWork() re-seeds the CPI to the
 * base CPI, so only work without L2 references, whose solve is its
 * base CPI exactly, leaves a key that the next setWork() can match.
 * The first entry is such work and the next five each differ from it
 * in one field, so a memo key that drops any of those fields meets
 * two inputs it cannot tell apart; the last two are cache-hungry
 * co-runners.
 */
std::vector<WorkParams>
paramPalette()
{
    const WorkParams base = memParams(2.0, 0.0, 0.08);
    std::vector<WorkParams> out(6, base);
    out[1].baseCpi = 1.3;
    out[2].refsPerIns = 0.03;
    out[3].curve.workingSetBytes = 5.0 * MiB;
    out[4].curve.baseMissRatio = 0.2;
    out[5].curve.exponent = 1.7;
    out.push_back(memParams(2.0, 0.03, 0.08));
    out.push_back(memParams(3.0, 0.05, 0.1));
    return out;
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/**
 * Drives a machine through a seeded script of state changes, mostly
 * at one tick and sometimes advancing, and after every change checks
 * each core's CPI, miss ratio, misses per instruction and the memory
 * latency, bit for bit, against refSolve() on the input the script
 * tracks.
 * @return The number of checked state changes.
 */
int
runRateScript(std::uint64_t seed, int steps)
{
    Rig rig(4, seed % 2 == 0 ? usToCycles(50.0) : 0);
    Machine &m = rig.machine;
    const MachineConfig &mc = m.config();
    const auto palette = paramPalette();
    constexpr double Occupancies[] = {0.0, 0.5 * MiB, 1.0 * MiB,
                                      2.0 * MiB, 3.0 * MiB};
    constexpr double Instructions[] = {2e3, 2e5, 2e7};
    rbv::stats::Rng rng(seed);
    std::vector<WorkParams> params(mc.numCores);
    int checked = 0;

    for (int step = 0; step < steps; ++step) {
        const auto core = static_cast<CoreId>(rng.uniformInt(4));
        // The seed of the fixed point is the CPI left by the last
        // solve, unless setWork() re-seeds it.
        std::vector<RefCore> in(mc.numCores);
        for (CoreId c = 0; c < mc.numCores; ++c)
            in[c].seedCpi = m.currentCpi(c);
        const RefRates before{
            {m.currentMissRatio(0), m.currentMissRatio(1),
             m.currentMissRatio(2), m.currentMissRatio(3)},
            {m.currentCpi(0), m.currentCpi(1), m.currentCpi(2),
             m.currentCpi(3)},
            m.currentMemLatency()};
        bool solves = true;
        const auto op = rng.uniformInt(12);
        if (op < 3) {
            if (m.busy(core) && rng.uniformInt(4) == 0) {
                // The same work re-seated at the CPI it runs at now:
                // its seed matches the key, its base CPI does not.
                params[core].baseCpi = m.currentCpi(core);
            } else {
                params[core] = palette[rng.uniformInt(palette.size())];
            }
            m.setWork(core, params[core],
                      Instructions[rng.uniformInt(3)]);
            in[core].seedCpi = params[core].baseCpi;
        } else if (op < 4) {
            m.clearWork(core);
        } else if (op < 7) {
            m.setOccupancy(core, Occupancies[rng.uniformInt(5)]);
        } else if (op < 9) {
            const double cycles = rng.uniformInt(2) == 0 ? 0.0 : 3000.0;
            m.pushFixedWork(core, FixedWork{cycles, 100.0, 4.0, 1.0});
        } else if (op < 10) {
            m.armCycleTimer(core, 1000.0 * (1 + rng.uniformInt(50)),
                            [] {});
            solves = false; // re-arms events only
        } else {
            // Let time pass: events fire and solve on their own, so
            // there is nothing to check until the next change.
            static constexpr Tick Spans[] = {1, 500, 20000, 400000};
            rig.eq.runUntil(rig.eq.now() + Spans[rng.uniformInt(4)]);
            continue;
        }

        for (CoreId c = 0; c < mc.numCores; ++c) {
            in[c].busy = m.busy(c);
            in[c].occupancy = m.occupancy(c); // same tick: no resync
            in[c].params = params[c];
        }
        const RefRates want = solves ? refSolve(mc, in) : before;
        for (CoreId c = 0; c < mc.numCores; ++c) {
            // An idle core's CPI is whatever it last ran at.
            const double cpi = in[c].busy ? want.effCpi[c]
                                          : in[c].seedCpi;
            const double mpi =
                in[c].busy ? params[c].refsPerIns * want.missRatio[c]
                           : 0.0;
            if (!solves) {
                EXPECT_EQ(bits(m.currentCpi(c)), bits(want.effCpi[c]));
            } else {
                EXPECT_EQ(bits(m.currentCpi(c)), bits(cpi))
                    << "seed " << seed << " step " << step << " core "
                    << c << ": " << m.currentCpi(c) << " vs " << cpi;
                EXPECT_EQ(bits(m.currentMissesPerIns(c)), bits(mpi))
                    << "seed " << seed << " step " << step;
            }
            EXPECT_EQ(bits(m.currentMissRatio(c)),
                      bits(want.missRatio[c]))
                << "seed " << seed << " step " << step << " core " << c;
        }
        EXPECT_EQ(bits(m.currentMemLatency()), bits(want.memLatency))
            << "seed " << seed << " step " << step;
        if (::testing::Test::HasFailure())
            return checked;
        ++checked;
    }
    return checked;
}

} // namespace

TEST(MachineRateMemo, EveryReadoutMatchesAFullSolve)
{
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        const int checked = runRateScript(seed, 600);
        ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
        EXPECT_GT(checked, 400) << "seed " << seed;
    }
}
