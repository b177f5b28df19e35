/**
 * @file
 * Micro-benchmark: hot-path costs of the online machinery — the
 * predictor update the scheduler runs at every sample (Sec. 5.1),
 * partial-signature identification against a 500-entry bank
 * (Sec. 4.4), timeline binning, and k-medoids clustering.
 *
 * These bound the real-time budget of online request modeling: all
 * per-sample operations must stay far below the per-sample cost of
 * Table 1 (~0.4-0.8 us on the paper's hardware).
 *
 * The BM_EventQueue* and BM_Machine* benchmarks time the untimed
 * layer under all of it: the simulator's event queue and the machine
 * rate model, which every simulated state change goes through.
 * BM_SlidingQuantileObserve times the serving loop's rolling anomaly
 * threshold, read and updated once per completed request.
 *
 * The BM_Obs* benchmarks bound the observability layer's own cost
 * (ISSUE 3 acceptance): dormant sites (no session attached) must be
 * ~a thread-local load and branch, and with -DRBV_OBS=0 the compiler
 * must erase them entirely — compare the two build configurations.
 * The instrumented-vs-uninstrumented pair (BM_SignatureBankIdentify
 * here vs its dormant-session cost) is the <=2% overhead check.
 */

#include <benchmark/benchmark.h>

#include "core/model/kmedoids.hh"
#include "core/model/signature.hh"
#include "core/predict/predictor.hh"
#include "core/timeline.hh"
#include "obs/obs.hh"
#include "sim/event_queue.hh"
#include "sim/machine.hh"
#include "stats/online.hh"
#include "stats/rng.hh"

using namespace rbv;
using namespace rbv::core;

namespace {

void
BM_VaEwmaObserve(benchmark::State &state)
{
    VaEwmaPredictor pred(0.6, 3000.0);
    stats::Rng rng(1);
    double t = 2500.0, x = 0.001;
    for (auto _ : state) {
        pred.observe(t, x);
        benchmark::DoNotOptimize(pred.predict());
        x += 1e-7;
    }
}

void
BM_SignatureBankIdentify(benchmark::State &state)
{
    const auto bank_size = static_cast<std::size_t>(state.range(0));
    const auto prefix_len = static_cast<std::size_t>(state.range(1));
    stats::Rng rng(2);
    SignatureBank bank(1.0e5);
    for (std::size_t i = 0; i < bank_size; ++i) {
        MetricSeries s;
        for (int k = 0; k < 60; ++k)
            s.push_back(rng.uniform(0.0, 0.05));
        bank.add(std::move(s), rng.uniform(1e6, 1e8), 0);
    }
    MetricSeries prefix;
    for (std::size_t k = 0; k < prefix_len; ++k)
        prefix.push_back(rng.uniform(0.0, 0.05));
    for (auto _ : state)
        benchmark::DoNotOptimize(bank.identify(prefix));
}

void
BM_TimelineBinning(benchmark::State &state)
{
    const auto periods = static_cast<std::size_t>(state.range(0));
    stats::Rng rng(3);
    Timeline tl;
    for (std::size_t i = 0; i < periods; ++i) {
        Period p;
        p.instructions = rng.uniform(5000.0, 50000.0);
        p.cycles = p.instructions * rng.uniform(0.8, 3.0);
        p.l2Refs = p.instructions * 0.02;
        p.l2Misses = p.l2Refs * 0.1;
        tl.periods.push_back(p);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            binByInstructions(tl, 1.0e5, Metric::Cpi));
    }
}

void
BM_KMedoids(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    stats::Rng rng(4);
    std::vector<double> pts;
    for (std::size_t i = 0; i < n; ++i)
        pts.push_back(rng.uniform(0.0, 100.0));
    const auto dm = DistanceMatrix::build(
        n, [&](std::size_t i, std::size_t j) {
            return std::abs(pts[i] - pts[j]);
        });
    for (auto _ : state) {
        stats::Rng crng(5);
        benchmark::DoNotOptimize(kMedoids(dm, 10, crng));
    }
}

// ------------------------------------------------- obs layer costs

void
BM_ObsCounterDormant(benchmark::State &state)
{
    // No session: the macro is one thread-local load plus a branch
    // (or nothing at all under -DRBV_OBS=0).
    for (auto _ : state)
        RBV_COUNT(SimEventsFired, 1);
}

void
BM_ObsCounterActive(benchmark::State &state)
{
    obs::Session session;
    for (auto _ : state)
        RBV_COUNT(SimEventsFired, 1);
}

void
BM_ObsProfScopeDormant(benchmark::State &state)
{
    for (auto _ : state) {
        RBV_PROF_SCOPE(DtwDistance);
        benchmark::ClobberMemory();
    }
}

void
BM_ObsProfScopeActive(benchmark::State &state)
{
    obs::Session session;
    for (auto _ : state) {
        RBV_PROF_SCOPE(DtwDistance);
        benchmark::ClobberMemory();
    }
}

void
BM_ObsTraceInstantActive(benchmark::State &state)
{
    obs::Session session;
    double ts = 0.0;
    for (auto _ : state) {
        obs::simInstant("bench", "instant", 0, ts);
        ts += 1.0;
    }
}

/**
 * The acceptance check in situ: identification against a 500-entry
 * bank with the profiled scopes dormant (compiled in, no session) —
 * compare against BM_SignatureBankIdentify/500/60 in the same run,
 * and against the same pair under -DRBV_OBS=0.
 */
void
BM_ObsSignatureIdentifyActive(benchmark::State &state)
{
    obs::Session session;
    stats::Rng rng(2);
    SignatureBank bank(1.0e5);
    for (std::size_t i = 0; i < 500; ++i) {
        MetricSeries s;
        for (int k = 0; k < 60; ++k)
            s.push_back(rng.uniform(0.0, 0.05));
        bank.add(std::move(s), rng.uniform(1e6, 1e8), 0);
    }
    MetricSeries prefix;
    for (std::size_t k = 0; k < 60; ++k)
        prefix.push_back(rng.uniform(0.0, 0.05));
    for (auto _ : state)
        benchmark::DoNotOptimize(bank.identify(prefix));
}

// ------------------------------------------- simulator event core

/**
 * Cancel + re-schedule one event at the tick it was cancelled at,
 * with range(0) events live: the re-arm Machine::scheduleBoundaries()
 * performs for every core on every state change, spelled as the two
 * calls EventQueue::rearm stands for. 20000 live events is the
 * cluster benchmark's upfront arrival backlog.
 */
void
BM_EventQueueRearm(benchmark::State &state)
{
    const auto live = static_cast<std::size_t>(state.range(0));
    sim::EventQueue eq;
    std::vector<sim::EventId> ids(live);
    std::vector<sim::Tick> whens(live);
    stats::Rng rng(6);
    for (std::size_t i = 0; i < live; ++i) {
        whens[i] = 1 + rng.uniformInt(1000000);
        ids[i] = eq.schedule(whens[i], [] {});
    }
    std::size_t k = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(eq.cancel(ids[k]));
        ids[k] = eq.schedule(whens[k], [] {});
        k = k + 1 == live ? 0 : k + 1;
    }
}

/**
 * The same re-arm as BM_EventQueueRearm, in place: EventQueue::rearm
 * keeps the slot and the callback and re-sifts one heap entry.
 */
void
BM_EventQueueRearmInPlace(benchmark::State &state)
{
    const auto live = static_cast<std::size_t>(state.range(0));
    sim::EventQueue eq;
    std::vector<sim::EventId> ids(live);
    std::vector<sim::Tick> whens(live);
    stats::Rng rng(6);
    for (std::size_t i = 0; i < live; ++i) {
        whens[i] = 1 + rng.uniformInt(1000000);
        ids[i] = eq.schedule(whens[i], [] {});
    }
    std::size_t k = 0;
    for (auto _ : state) {
        ids[k] = eq.rearm(ids[k], whens[k]);
        benchmark::DoNotOptimize(ids[k]);
        k = k + 1 == live ? 0 : k + 1;
    }
}

/**
 * Pop the next event while range(0) events stay live: each fired
 * event schedules its successor a random delay ahead (the classic
 * hold model), so one iteration is one pop plus one push.
 */
struct HoldModel
{
    sim::EventQueue eq;
    stats::Rng rng{7};

    void
    arm()
    {
        // One captured pointer: the callback is stored in place.
        eq.scheduleIn(1 + rng.uniformInt(1000), [this] { arm(); });
    }
};

void
BM_EventQueuePop(benchmark::State &state)
{
    const auto live = static_cast<std::size_t>(state.range(0));
    HoldModel hm;
    for (std::size_t i = 0; i < live; ++i)
        hm.arm();
    for (auto _ : state)
        benchmark::DoNotOptimize(hm.eq.runOne());
}

/** The default 4-core, two-domain machine with every core busy. */
struct BusyMachine
{
    sim::EventQueue eq;
    sim::MachineConfig mc;
    sim::Machine m{mc, eq};

    BusyMachine()
    {
        sim::WorkParams wp;
        wp.baseCpi = 0.9;
        wp.refsPerIns = 0.02;
        wp.curve.workingSetBytes = 3.0 * 1024 * 1024;
        wp.curve.baseMissRatio = 0.05;
        for (sim::CoreId c = 0; c < mc.numCores; ++c) {
            m.setWork(c, wp, 1e12);
            m.armCycleTimer(c, 1e6, [] {});
        }
    }
};

/**
 * One machine state change on a BusyMachine: rate recompute (two
 * water-fills and the CPI / latency solve) plus the boundary and
 * timer re-arm that follows it, driven through setOccupancy() at a
 * fixed tick. The footprint moves every time, so the rate-solve memo
 * always misses.
 */
void
BM_MachineRecomputeRates(benchmark::State &state)
{
    BusyMachine bm;
    double occ = 0.0;
    for (auto _ : state) {
        bm.m.setOccupancy(0, occ);
        benchmark::DoNotOptimize(bm.m.currentCpi(0));
        occ = occ < 2.0e6 ? occ + 4096.0 : 0.0;
    }
}

/**
 * BM_MachineRecomputeRates with the footprint restored to the value
 * it already has: after the first few solves reach their fixed point
 * the rate-solve memo hits, leaving the water-fills and the re-arm.
 */
void
BM_MachineRecomputeRatesMemoHit(benchmark::State &state)
{
    BusyMachine bm;
    for (auto _ : state) {
        bm.m.setOccupancy(0, 1.0e6);
        benchmark::DoNotOptimize(bm.m.currentCpi(0));
    }
}

/**
 * RollingAnomalyScorer::observe's window work: read the 0.99 quantile
 * of the last range(0) scores, then add a new score, evicting the
 * oldest. range(0) spans the serving loop's windows: the hedge
 * quantile (128), the anomaly window (1024) and the latency window
 * (8192).
 */
void
BM_SlidingQuantileObserve(benchmark::State &state)
{
    const auto window = static_cast<std::size_t>(state.range(0));
    stats::SlidingQuantile q(window);
    stats::Rng rng(8);
    std::vector<double> scores(4096);
    for (double &x : scores)
        x = rng.logNormal(0.0, 0.5);
    for (std::size_t i = 0; i < window; ++i)
        q.add(scores[i % scores.size()]);
    std::size_t k = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(q.quantile(0.99));
        q.add(scores[k]);
        k = k + 1 == scores.size() ? 0 : k + 1;
    }
}

} // namespace

BENCHMARK(BM_EventQueueRearm)->Arg(8)->Arg(64)->Arg(20000);
BENCHMARK(BM_EventQueueRearmInPlace)->Arg(8)->Arg(64)->Arg(20000);
BENCHMARK(BM_EventQueuePop)->Arg(8)->Arg(64)->Arg(20000);
BENCHMARK(BM_MachineRecomputeRates);
BENCHMARK(BM_MachineRecomputeRatesMemoHit);
BENCHMARK(BM_SlidingQuantileObserve)->Arg(128)->Arg(1024)->Arg(8192);
BENCHMARK(BM_VaEwmaObserve);
BENCHMARK(BM_ObsCounterDormant);
BENCHMARK(BM_ObsCounterActive);
BENCHMARK(BM_ObsProfScopeDormant);
BENCHMARK(BM_ObsProfScopeActive);
BENCHMARK(BM_ObsTraceInstantActive);
BENCHMARK(BM_ObsSignatureIdentifyActive);
BENCHMARK(BM_SignatureBankIdentify)
    ->Args({100, 10})
    ->Args({500, 10})
    ->Args({500, 60});
BENCHMARK(BM_TimelineBinning)->Range(64, 4096);
BENCHMARK(BM_KMedoids)->Range(64, 512);

BENCHMARK_MAIN();
