/**
 * @file
 * Cross-module invariant and property tests: conservation of work,
 * attribution completeness, monotonicity of the contention model,
 * and scheduling fairness properties that every valid configuration
 * must satisfy.
 */

#include <gtest/gtest.h>

#include <limits>

#include "core/check.hh"
#include "core/model/anomaly.hh"
#include "core/model/distance.hh"
#include "exp/analysis.hh"
#include "exp/scenario.hh"
#include "os/kernel.hh"
#include "sim/cache.hh"
#include "sim/counters.hh"
#include "sim/event_queue.hh"
#include "sim/machine.hh"
#include "wl/mbench.hh"

using namespace rbv;
using namespace rbv::exp;

namespace {

ScenarioConfig
baseConfig(wl::App app, std::size_t requests, std::uint64_t seed = 21)
{
    ScenarioConfig cfg;
    cfg.app = app;
    cfg.requests = requests;
    cfg.warmup = 0; // every request inspected
    cfg.seed = seed;
    return cfg;
}

} // namespace

/** Parameterized over applications: attribution properties. */
class InvariantAllApps : public ::testing::TestWithParam<wl::App>
{
};

TEST_P(InvariantAllApps, RequestTotalsWithinMachineTotals)
{
    // The sum of per-request attributed instructions can never
    // exceed what the machine executed, and for a server workload
    // almost all executed work belongs to some request.
    const auto res = runScenario(baseConfig(GetParam(), 40));
    double attributed = 0.0;
    for (const auto &r : res.records)
        attributed += r.totals.instructions;

    // busyCycles is in cycles; recompute machine instructions from
    // the records' CPI-weighted totals is circular, so bound via
    // cycles instead: attributed cycles <= busy cycles.
    double attributed_cycles = 0.0;
    for (const auto &r : res.records)
        attributed_cycles += r.totals.cycles;
    EXPECT_LE(attributed_cycles, res.busyCycles * (1.0 + 1e-9));
    // Server workloads spend most busy time inside requests.
    EXPECT_GT(attributed_cycles, res.busyCycles * 0.5);
    EXPECT_GT(attributed, 0.0);
}

TEST_P(InvariantAllApps, TimelineNeverExceedsExactAccounting)
{
    const auto res = runScenario(baseConfig(GetParam(), 40));
    for (const auto &r : res.records) {
        // With "do no harm" compensation the sampled timeline can
        // only under-count events relative to the exact totals (a
        // small tail before completion is never sampled; the
        // compensation never over-subtracts below zero).
        EXPECT_LE(r.timeline.totalInstructions(),
                  r.totals.instructions * 1.02);
        for (const auto &p : r.timeline.periods) {
            EXPECT_GE(p.instructions, 0.0);
            EXPECT_GE(p.cycles, 0.0);
            EXPECT_GE(p.l2Refs, 0.0);
            EXPECT_GE(p.l2Misses, 0.0);
            // Misses never exceed references.
            EXPECT_LE(p.l2Misses, p.l2Refs + 1e-6);
        }
    }
}

TEST_P(InvariantAllApps, WallClockOrdering)
{
    const auto res = runScenario(baseConfig(GetParam(), 40));
    for (const auto &r : res.records) {
        EXPECT_GE(r.completed, r.injected);
        // Periods are recorded in wall order.
        sim::Tick prev = 0;
        for (const auto &p : r.timeline.periods) {
            EXPECT_GE(p.wallStart, prev);
            prev = p.wallStart;
        }
        // A request's CPU time cannot exceed its wall latency times
        // the core count.
        EXPECT_LE(r.totals.cycles,
                  static_cast<double>(r.completed - r.injected) * 4 +
                      1e4);
    }
}

INSTANTIATE_TEST_SUITE_P(Apps, InvariantAllApps,
                         ::testing::Values(wl::App::WebServer,
                                           wl::App::Tpcc,
                                           wl::App::Rubis),
                         [](const auto &info) {
                             return wl::makeGenerator(info.param)
                                 ->appName();
                         });

TEST(Invariant, CpiNeverBelowBase)
{
    // No request can beat its segments' best-case pipeline CPI by
    // much (kernel fixed work has CPI >= 1.4; the cheapest user
    // segments sit near 0.6).
    const auto res = runScenario(baseConfig(wl::App::Tpcc, 60));
    for (const auto &r : res.records)
        EXPECT_GT(r.cpi(), 0.55);
}

TEST(Invariant, MoreCoresNeverSlowerWallClock)
{
    // Same workload, 1 vs 4 cores: total wall time must shrink (the
    // requests are CPU bound and the closed loop is identical).
    auto cfg1 = baseConfig(wl::App::Tpcc, 60);
    cfg1.numCores = 1;
    const auto r1 = runScenario(cfg1);
    auto cfg4 = baseConfig(wl::App::Tpcc, 60);
    const auto r4 = runScenario(cfg4);
    EXPECT_LT(r4.wallCycles, r1.wallCycles);
}

TEST(Invariant, BiggerL2NeverHurtsCacheBoundWork)
{
    auto small = baseConfig(wl::App::Tpch, 25);
    small.l2CapacityMiB = 2.0;
    auto large = baseConfig(wl::App::Tpch, 25);
    large.l2CapacityMiB = 8.0;
    const double cpi_small =
        overallMetric(runScenario(small).records, core::Metric::Cpi);
    const double cpi_large =
        overallMetric(runScenario(large).records, core::Metric::Cpi);
    EXPECT_LT(cpi_large, cpi_small);
}

TEST(Invariant, SamplingPerturbsButDoesNotDistort)
{
    // With observer injection on vs off, the workload's overall CPI
    // must agree within a few percent (the observer effect is real
    // but small at the default periods).
    auto on = baseConfig(wl::App::Tpcc, 60);
    auto off = on;
    off.injectObserverCost = false;
    const double cpi_on =
        overallMetric(runScenario(on).records, core::Metric::Cpi);
    const double cpi_off =
        overallMetric(runScenario(off).records, core::Metric::Cpi);
    EXPECT_NEAR(cpi_on / cpi_off, 1.0, 0.05);
}

TEST(Invariant, SeedChangesDataNotShape)
{
    // Different seeds must produce different request streams but
    // statistically consistent aggregates.
    const auto a = runScenario(baseConfig(wl::App::Tpcc, 120, 1));
    const auto b = runScenario(baseConfig(wl::App::Tpcc, 120, 2));
    EXPECT_NE(a.wallCycles, b.wallCycles);
    const double cpi_a = overallMetric(a.records, core::Metric::Cpi);
    const double cpi_b = overallMetric(b.records, core::Metric::Cpi);
    EXPECT_NEAR(cpi_a / cpi_b, 1.0, 0.25);
}

/** Sampling-period sweep: sample counts scale with frequency. */
class PeriodSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(PeriodSweep, SampleCountTracksPeriod)
{
    auto cfg = baseConfig(wl::App::Tpcc, 40);
    cfg.samplingPeriodUs = GetParam();
    const auto res = runScenario(cfg);
    // Expected interrupt samples ~= busy time / period.
    const double expected =
        sim::cyclesToUs(res.busyCycles) / GetParam();
    EXPECT_NEAR(
        static_cast<double>(res.samplerStats.interruptSamples),
        expected, expected * 0.35 + 20.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PeriodSweep,
                         ::testing::Values(50.0, 100.0, 200.0, 400.0),
                         [](const auto &info) {
                             return "us" + std::to_string(
                                               (int)info.param);
                         });

// ---------------------------------------------------------------------
// RBV_CHECK / RBV_DCHECK trip tests: each guarded invariant must
// abort loudly (death test) when violated, and stay silent on the
// legal path. These are the dynamic half of the rbvlint wall.
// ---------------------------------------------------------------------

TEST(CheckMacros, PassingChecksAreSilent)
{
    RBV_CHECK(2 + 2 == 4);
    RBV_CHECK(true, "never evaluated " << 42);
    RBV_DCHECK(1 < 2);
    RBV_DCHECK(true, "also never evaluated");
    SUCCEED();
}

using CheckTripDeath = ::testing::Test;

TEST(CheckTripDeath, ScheduleIntoThePastAborts)
{
    sim::EventQueue eq;
    eq.schedule(100, [] {});
    ASSERT_TRUE(eq.runOne());
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_DEATH(eq.schedule(50, [] {}),
                 "RBV_CHECK failed.*scheduled into the past");
}

TEST(CheckTripDeath, RearmIntoThePastAborts)
{
    sim::EventQueue eq;
    eq.schedule(100, [] {});
    const sim::EventId later = eq.schedule(200, [] {});
    ASSERT_TRUE(eq.runOne());
    const sim::EventId at_now = eq.rearm(later, 100); // legal
    ASSERT_NE(at_now, sim::InvalidEventId);
    EXPECT_DEATH(eq.rearm(at_now, 50),
                 "RBV_CHECK failed.*scheduled into the past");
}

TEST(CheckTripDeath, EventSlotTableFullAborts)
{
    sim::EventQueue eq(2, sim::EventQueue::MaxGeneration);
    eq.schedule(10, [] {});
    const sim::EventId b = eq.schedule(20, [] {});
    ASSERT_TRUE(eq.cancel(b));
    eq.schedule(30, [] {}); // reuses b's slot: legal
    EXPECT_EQ(eq.size(), 2u);
    EXPECT_DEATH(eq.schedule(40, [] {}),
                 "RBV_CHECK failed.*event slot table full");
}

TEST(CheckTripDeath, EventGenerationWrapAborts)
{
    // One slot that may carry three events: handles of the first two
    // must never cancel the third, and a fourth must not reuse it.
    sim::EventQueue eq(1, 3);
    const sim::EventId g1 = eq.schedule(10, [] {});
    ASSERT_TRUE(eq.cancel(g1));
    const sim::EventId g2 = eq.schedule(10, [] {});
    ASSERT_TRUE(eq.runOne());
    const sim::EventId g3 = eq.schedule(20, [] {});
    EXPECT_FALSE(eq.cancel(g1));
    EXPECT_FALSE(eq.cancel(g2));
    EXPECT_EQ(eq.size(), 1u);
    ASSERT_TRUE(eq.cancel(g3));
    EXPECT_DEATH(eq.schedule(30, [] {}),
                 "RBV_CHECK failed.*exhausted its 3 generations");
}

TEST(CheckTripDeath, EventGenerationWrapThroughRearmAborts)
{
    // rearm() spends a generation exactly as cancel + schedule does:
    // three events on one slot, then the fourth aborts.
    sim::EventQueue eq(1, 3);
    const sim::EventId g1 = eq.schedule(10, [] {});
    const sim::EventId g2 = eq.rearm(g1, 20);
    const sim::EventId g3 = eq.rearm(g2, 30);
    ASSERT_NE(g3, sim::InvalidEventId);
    EXPECT_EQ(eq.rearm(g1, 40), sim::InvalidEventId);
    EXPECT_EQ(eq.rearm(g2, 40), sim::InvalidEventId);
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_DEATH(eq.rearm(g3, 40),
                 "RBV_CHECK failed.*exhausted its 3 generations");
}

TEST(CheckTripDeath, EventQueueLimitsAboveEncodingAbort)
{
    EXPECT_DEATH(sim::EventQueue(sim::EventQueue::MaxSlots + 1, 1),
                 "RBV_CHECK failed.*event slot limit");
    EXPECT_DEATH(sim::EventQueue(1, 0),
                 "RBV_CHECK failed.*event generation limit");
}

TEST(CheckTripDeath, RunUntilBackwardsAborts)
{
    sim::EventQueue eq;
    eq.schedule(100, [] {});
    ASSERT_TRUE(eq.runOne());
    EXPECT_DEATH(eq.runUntil(50), "RBV_CHECK failed");
}

TEST(CheckTripDeath, NegativeCounterAccrualAborts)
{
    sim::PerfCounters pc;
    pc.accrue(1.0, 1.0, 0.0, 0.0); // legal
    EXPECT_DEATH(pc.accrue(-1.0, 0.0, 0.0, 0.0),
                 "RBV_DCHECK failed.*counter accrual regressed");
}

TEST(CheckTripDeath, NegativeFootprintAborts)
{
    sim::EventQueue eq;
    sim::MachineConfig mc;
    sim::Machine m(mc, eq);
    m.setOccupancy(0, mc.l2CapacityBytes * 2.0); // clamped: legal
    EXPECT_DOUBLE_EQ(m.occupancy(0), mc.l2CapacityBytes);
    EXPECT_DEATH(m.setOccupancy(0, -1.0),
                 "RBV_CHECK failed.*is not a byte count");
}

TEST(CheckTripDeath, InvalidCoreAndCpiAbort)
{
    sim::EventQueue eq;
    sim::MachineConfig mc;
    sim::Machine m(mc, eq);
    sim::WorkParams wp;
    EXPECT_DEATH(m.setWork(mc.numCores + 3, wp, 100.0),
                 "RBV_CHECK failed");
    wp.baseCpi = 0.0;
    EXPECT_DEATH(m.setWork(0, wp, 100.0),
                 "RBV_CHECK failed.*base CPI");
}

TEST(CheckTripDeath, UnboundedWorkAborts)
{
    // Infinite work would put its completion past the end of time;
    // the cast to a tick must trip a check, not run undefined.
    sim::EventQueue eq;
    sim::MachineConfig mc;
    sim::Machine m(mc, eq);
    sim::WorkParams wp;
    m.setWork(0, wp, 1e6); // legal
    EXPECT_DEATH(
        m.setWork(1, wp, std::numeric_limits<double>::infinity()),
        "RBV_CHECK failed.*cycles ahead is not a tick");
    EXPECT_DEATH(m.setWork(1, wp, 1e30),
                 "RBV_CHECK failed.*cycles ahead is not a tick");
}

TEST(CheckTripDeath, WaterFillArityMismatchAborts)
{
    EXPECT_DEATH(
        sim::waterFillTargets(1024.0, {1.0, 2.0}, {512.0}),
        "RBV_CHECK failed.*arity mismatch");
}

TEST(CheckTripDeath, KernelDoubleStartAborts)
{
    sim::EventQueue eq;
    sim::MachineConfig mc;
    sim::Machine m(mc, eq);
    os::Kernel k(m);
    m.setClient(&k);
    k.start();
    EXPECT_DEATH(k.start(), "RBV_CHECK failed.*called twice");
}

TEST(CheckTripDeath, CompletingUnknownRequestAborts)
{
    sim::EventQueue eq;
    sim::MachineConfig mc;
    sim::Machine m(mc, eq);
    os::Kernel k(m);
    m.setClient(&k);
    EXPECT_DEATH(k.completeRequest(7), "RBV_CHECK failed");
}

TEST(CheckTripDeath, EarlyAbandonNegativePenaltyAborts)
{
    // With p < 0 row minima can fall: row 0 of x=[5,0,0,0] vs y=[0]
    // is 5, yet the exact value is 2, so abandoning at cutoff 5 would
    // be unsound. The kernel refuses the penalty outright.
    const core::MetricSeries x{5.0, 0.0, 0.0, 0.0}, y{0.0};
    EXPECT_EQ(core::dtwDistanceEarlyAbandon(x, y, 0.0, 6.0),
              5.0); // legal
    EXPECT_DEATH(core::dtwDistanceEarlyAbandon(x, y, -1.0, 5.0),
                 "RBV_DCHECK failed.*async_penalty >= 0");
}

TEST(CheckTripDeath, MetricPairSeriesSizeMismatchAborts)
{
    // The pair search reads cpi_series[i] for every refs index, so a
    // shorter CPI list would be read past its end.
    const std::vector<core::MetricSeries> refs(3,
                                               core::MetricSeries(8, 0.02));
    const std::vector<core::MetricSeries> cpi(2,
                                              core::MetricSeries(8, 1.5));
    EXPECT_DEATH(core::detectMetricPairAnomaly(refs, cpi, 0.01, 0.5),
                 "RBV_CHECK failed.*parallel series");
}

TEST(Invariant, ChannelFifoAcrossManyWaiters)
{
    // Messages must be delivered in order even when several workers
    // wait on one channel: request ids complete in injection order
    // for a deterministic single-core serial setup.
    auto cfg = baseConfig(wl::App::Tpcc, 30);
    cfg.numCores = 1;
    cfg.concurrency = 1;
    const auto res = runScenario(cfg);
    for (std::size_t i = 1; i < res.records.size(); ++i)
        EXPECT_GT(res.records[i].completed,
                  res.records[i - 1].completed);
}
