/**
 * @file
 * Property suite for the lower-bound cascade and the anti-diagonal
 * DTW kernels: soundness of every bound, bit-identity of every fast
 * path against the preserved references, and pruning that provably
 * never changes a winner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/model/anomaly.hh"
#include "core/model/cascade.hh"
#include "core/model/distance.hh"
#include "core/model/distance_ref.hh"
#include "core/model/distance_scratch.hh"
#include "core/model/dtw_simd.hh"
#include "core/model/kmedoids.hh"
#include "core/model/signature.hh"
#include "obs/obs.hh"
#include "stats/rng.hh"

using namespace rbv;
using namespace rbv::core;

namespace {

MetricSeries
randomSeries(std::size_t n, stats::Rng &rng)
{
    MetricSeries s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        s.push_back(rng.uniform(0.2, 4.0));
    return s;
}

/** Class-structured series: what clustering inputs actually look like. */
MetricSeries
classSeries(std::size_t len, std::size_t cls, std::uint64_t seed)
{
    stats::Rng rng(seed);
    MetricSeries s;
    s.reserve(len);
    const double base = 1.0 + 0.9 * static_cast<double>(cls);
    const double freq = 0.05 + 0.01 * static_cast<double>(cls);
    for (std::size_t k = 0; k < len; ++k)
        s.push_back(base +
                    0.4 * std::sin(freq * static_cast<double>(k)) +
                    rng.uniform(-0.08, 0.08));
    return s;
}

/**
 * Behavior-class series built without libm: a class shape (straight
 * segments through the class's random knots, one every 16 samples)
 * played at a per-series tempo, plus uniform noise. Every value is
 * exact IEEE arithmetic on seeded streams, so the cells the pruned
 * kernels compute on these series are the same on every host.
 */
MetricSeries
knotSeries(std::size_t len, std::size_t cls, stats::Rng &rng)
{
    stats::Rng shape(100 + cls);
    std::vector<double> knots(len / 8 + 2);
    for (double &k : knots)
        k = shape.uniform(0.5, 3.5);
    const double tempo = rng.uniform(0.8, 1.25);
    MetricSeries s;
    s.reserve(len);
    for (std::size_t k = 0; k < len; ++k) {
        const double at = static_cast<double>(k) * tempo / 16.0;
        const auto knot = static_cast<std::size_t>(at);
        const double t = at - static_cast<double>(knot);
        s.push_back(knots[knot] + t * (knots[knot + 1] - knots[knot]) +
                    rng.uniform(-0.05, 0.05));
    }
    return s;
}

/** Brute-force window min/max the deque sweep must reproduce. */
void
naiveEnvelope(const MetricSeries &s, std::size_t radius,
              SeriesEnvelope &out)
{
    const std::size_t n = s.size();
    out.lower.assign(n, 0.0);
    out.upper.assign(n, 0.0);
    out.radius = radius;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t lo = i >= radius ? i - radius : 0;
        const std::size_t hi = std::min(n - 1, i + radius);
        double mn = s[lo], mx = s[lo];
        for (std::size_t j = lo + 1; j <= hi; ++j) {
            mn = std::min(mn, s[j]);
            mx = std::max(mx, s[j]);
        }
        out.lower[i] = mn;
        out.upper[i] = mx;
    }
}

} // namespace

// ------------------------------------------------------------ envelope

TEST(Envelope, MatchesNaiveWindowScan)
{
    stats::Rng rng(101);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n =
            1 + static_cast<std::size_t>(rng.uniformInt(60));
        const std::size_t r =
            static_cast<std::size_t>(rng.uniformInt(20));
        const auto s = randomSeries(n, rng);
        SeriesEnvelope fast, naive;
        buildEnvelope(s, r, fast);
        naiveEnvelope(s, r, naive);
        ASSERT_EQ(fast.lower, naive.lower) << "n=" << n << " r=" << r;
        ASSERT_EQ(fast.upper, naive.upper) << "n=" << n << " r=" << r;
    }
}

TEST(Envelope, ZeroRadiusIsTheSeriesItself)
{
    stats::Rng rng(7);
    const auto s = randomSeries(17, rng);
    SeriesEnvelope e;
    buildEnvelope(s, 0, e);
    EXPECT_EQ(e.lower, s);
    EXPECT_EQ(e.upper, s);
}

// --------------------------------------------------------- bound chain

TEST(LowerBounds, ChainNeverPrunesJustAboveExact)
{
    // At a cutoff one ulp above the exact value a sound cascade must
    // reach the DP and return that value: any stage pruning here had
    // a (margin-deflated) bound above the exact DTW. Radii fall on
    // both sides of |m-n|, where LB_Keogh's envelope arm switches
    // on, and reach past max(m,n), where its exit arm switches off.
    constexpr double Inf = std::numeric_limits<double>::infinity();
    stats::Rng rng(202);
    const double penalties[] = {0.0, 0.3, 1.0, 5.0};
    for (int trial = 0; trial < 240; ++trial) {
        const std::size_t m =
            1 + static_cast<std::size_t>(rng.uniformInt(48));
        const std::size_t n =
            1 + static_cast<std::size_t>(rng.uniformInt(48));
        const auto x = randomSeries(m, rng);
        const auto y = randomSeries(n, rng);
        const double p = penalties[trial % 4];
        const std::size_t r =
            static_cast<std::size_t>(rng.uniformInt(m + n));
        SeriesEnvelope env_x, env_y;
        buildEnvelope(x, r, env_x);
        buildEnvelope(y, r, env_y);
        const double exact = ref::dtwDistance(x, y, p);
        ASSERT_EQ(cascadeDtw(x, y, p, std::nextafter(exact, Inf), env_y,
                             &env_x),
                  exact)
            << "m=" << m << " n=" << n << " p=" << p << " r=" << r;
    }
}

TEST(LowerBounds, ChainRejectionsAreSoundAndEveryStageFires)
{
    // Below the exact value every stage may reject; each rejection
    // must be a true d >= cutoff, and on these inputs both bounds
    // and the abandoning DP each get to reject something.
    stats::Rng rng(303);
    CascadeStats tallies;
    for (int trial = 0; trial < 400; ++trial) {
        const std::size_t m =
            1 + static_cast<std::size_t>(rng.uniformInt(40));
        const std::size_t n =
            1 + static_cast<std::size_t>(rng.uniformInt(40));
        const auto x = randomSeries(m, rng);
        const auto y = randomSeries(n, rng);
        const double p = 0.25 * static_cast<double>(trial % 5);
        const std::size_t diff = m > n ? m - n : n - m;
        SeriesEnvelope env_y;
        buildEnvelope(y, diff + 2, env_y);
        const double exact = ref::dtwDistance(x, y, p);
        const double cutoff = exact * rng.uniform(0.05, 1.5);
        const double got = cascadeDtw(x, y, p, cutoff, env_y, nullptr,
                                      &tallies);
        if (std::isinf(got))
            ASSERT_GE(exact, cutoff) << "m=" << m << " n=" << n;
        else
            ASSERT_EQ(got, exact) << "m=" << m << " n=" << n;
    }
    EXPECT_GT(tallies.kimPrunes, 0u);
    EXPECT_GT(tallies.keoghPrunes, 0u);
    EXPECT_GT(tallies.eaAbandons, 0u);
    EXPECT_GT(tallies.dpRuns, tallies.eaAbandons);
}

TEST(LowerBounds, FlatSeriesAndZeroPenalty)
{
    // Degenerate corners: constant series (every E_i zero) and p = 0
    // (length mismatch free). The bounds must stay sound, not just on
    // generic inputs.
    const MetricSeries flat_a(30, 2.0);
    const MetricSeries flat_b(13, 2.0);
    SeriesEnvelope env_a, env_b;
    buildEnvelope(flat_a, 20, env_a);
    buildEnvelope(flat_b, 20, env_b);
    const double exact = ref::dtwDistance(flat_a, flat_b, 0.0);
    EXPECT_DOUBLE_EQ(exact, 0.0);
    EXPECT_EQ(cascadeDtw(flat_a, flat_b, 0.0,
                         std::numeric_limits<double>::denorm_min(),
                         env_b, &env_a),
              exact);
}

// ----------------------------------------------------- kernel dispatch

TEST(DiagKernel, DispatcherMatchesReferenceAcrossLengthThreshold)
{
    // dtwDistance routes short series to the rolling kernel and long
    // ones to the diagonal kernels; both sides of the threshold must
    // agree with the reference bitwise.
    stats::Rng rng(606);
    for (std::size_t m : {1u, 2u, 7u, 15u, 16u, 17u, 33u, 64u}) {
        for (std::size_t n : {1u, 9u, 16u, 31u, 64u}) {
            const auto x = randomSeries(m, rng);
            const auto y = randomSeries(n, rng);
            ASSERT_EQ(dtwDistance(x, y, 1.0),
                      ref::dtwDistance(x, y, 1.0))
                << "m=" << m << " n=" << n;
        }
    }
}

// ----------------------------------------------------------- cascade

TEST(Cascade, ExactMatchesReferenceMatrixExactly)
{
    constexpr std::size_t N = 24;
    std::vector<MetricSeries> series;
    for (std::size_t i = 0; i < N; ++i)
        series.push_back(classSeries(40 + i % 16, i % 3, i + 1));
    std::vector<const MetricSeries *> items;
    for (const auto &s : series)
        items.push_back(&s);

    DistanceCascade dc(items.data(), N, 1.0);
    for (std::size_t i = 0; i < N; ++i)
        for (std::size_t j = 0; j < N; ++j)
            ASSERT_EQ(dc.exact(i, j),
                      ref::dtwDistance(series[i], series[j], 1.0))
                << "i=" << i << " j=" << j;
}

TEST(Cascade, AtMostFalseImpliesExactAtLeastCutoff)
{
    constexpr std::size_t N = 20;
    std::vector<MetricSeries> series;
    for (std::size_t i = 0; i < N; ++i)
        series.push_back(classSeries(36 + i % 12, i % 4, i + 11));
    std::vector<const MetricSeries *> items;
    for (const auto &s : series)
        items.push_back(&s);

    stats::Rng rng(707);
    DistanceCascade dc(items.data(), N, 0.7);
    for (int trial = 0; trial < 400; ++trial) {
        const std::size_t i =
            static_cast<std::size_t>(rng.uniformInt(N));
        const std::size_t j =
            static_cast<std::size_t>(rng.uniformInt(N));
        const double exact = ref::dtwDistance(series[i], series[j], 0.7);
        const double cutoff = exact * rng.uniform(0.25, 1.75) + 1e-9;
        double d = std::numeric_limits<double>::quiet_NaN();
        if (dc.atMost(i, j, cutoff, d)) {
            // A true answer is always the exact distance, bitwise.
            ASSERT_EQ(d, exact);
        } else {
            // A false answer must be a sound rejection.
            ASSERT_GE(exact, cutoff);
            ASSERT_TRUE(std::isnan(d)) << "d must be untouched";
        }
    }
}

TEST(Cascade, LowerBoundNeverExceedsExact)
{
    constexpr std::size_t N = 16;
    std::vector<MetricSeries> series;
    for (std::size_t i = 0; i < N; ++i)
        series.push_back(classSeries(30 + i, i % 3, i + 5));
    std::vector<const MetricSeries *> items;
    for (const auto &s : series)
        items.push_back(&s);
    DistanceCascade dc(items.data(), N, 1.3);
    for (std::size_t i = 0; i < N; ++i)
        for (std::size_t j = 0; j < N; ++j) {
            const double lb = dc.lowerBound(i, j);
            ASSERT_LE(lb, ref::dtwDistance(series[i], series[j], 1.3));
        }
}

TEST(Cascade, KMedoidsOverCascadeBitIdenticalToOverMatrix)
{
    constexpr std::size_t N = 48;
    std::vector<MetricSeries> series;
    for (std::size_t i = 0; i < N; ++i)
        series.push_back(classSeries(40 + i % 24, i % 4, i + 21));
    std::vector<const MetricSeries *> items;
    for (const auto &s : series)
        items.push_back(&s);

    for (const double p : {0.0, 1.0}) {
        for (const std::size_t k : {std::size_t{2}, std::size_t{4},
                                    std::size_t{7}}) {
            const auto dm = DistanceMatrix::build(
                N,
                [&](std::size_t i, std::size_t j) {
                    return dtwDistance(series[i], series[j], p);
                },
                1);
            stats::Rng r1(33);
            const auto plain = kMedoids(dm, k, r1);

            DistanceCascade dc(items.data(), N, p);
            stats::Rng r2(33);
            const auto casc = kMedoids(dc, k, r2);

            ASSERT_EQ(plain.medoids, casc.medoids)
                << "p=" << p << " k=" << k;
            ASSERT_EQ(plain.assignment, casc.assignment)
                << "p=" << p << " k=" << k;
            ASSERT_EQ(plain.totalCost, casc.totalCost)
                << "p=" << p << " k=" << k;
            // The point of the cascade: it must actually prune.
            EXPECT_LT(dc.stats().dpRuns, N * (N - 1) / 2 + N)
                << "p=" << p << " k=" << k;
        }
    }
}

// ------------------------------------------------ pinned work counters

namespace {

/** The four cascade counters of a finished session. */
std::array<std::uint64_t, 4>
cascadeCounters(const obs::Session &session)
{
    const auto m = session.mergedMetrics();
    const auto at = [&](obs::Counter c) {
        return m.counters[static_cast<std::size_t>(c)];
    };
    return {at(obs::Counter::ModelLbKimPrunes),
            at(obs::Counter::ModelLbKeoghPrunes),
            at(obs::Counter::ModelCascadeDpRuns),
            at(obs::Counter::ModelDtwEarlyAbandons)};
}

} // namespace

// rbvbench exercises only the streaming consumers of the cascade, so
// these two pin the prune, DP and abandon counts of the other two —
// k-medoids over a DistanceCascade and the metric-pair search. Any
// change to the order or strength of the checks shows up here as a
// moved count. {kim, keogh, dp runs, early abandons}.

TEST(CascadeCounters, KMedoidsOverCascadeFixedSeed)
{
    obs::Session session;
    if (!obs::attached())
        GTEST_SKIP() << "obs compiled out (RBV_OBS=0)";
    constexpr std::size_t N = 48;
    std::vector<MetricSeries> series;
    for (std::size_t i = 0; i < N; ++i)
        series.push_back(classSeries(40 + i % 24, i % 4, i + 21));
    std::vector<const MetricSeries *> items;
    for (const auto &s : series)
        items.push_back(&s);
    DistanceCascade dc(items.data(), N, 1.0);
    stats::Rng rng(33);
    const auto cl = kMedoids(dc, 4, rng);
    EXPECT_EQ(cl.medoids, (std::vector<std::size_t>{8, 35, 33, 34}));
    EXPECT_EQ(cascadeCounters(session),
              (std::array<std::uint64_t, 4>{55, 116, 427, 14}));
}

TEST(CascadeCounters, MetricPairAnomalyFixedSeed)
{
    obs::Session session;
    if (!obs::attached())
        GTEST_SKIP() << "obs compiled out (RBV_OBS=0)";
    constexpr std::size_t N = 32;
    std::vector<MetricSeries> refs, cpi;
    for (std::size_t i = 0; i < N; ++i) {
        refs.push_back(classSeries(30 + i % 12, i % 3, i + 51));
        cpi.push_back(classSeries(30 + i % 12, (i * 7) % 5, i + 91));
    }
    const auto det = detectMetricPairAnomaly(refs, cpi, 0.5, 0.5);
    EXPECT_EQ(det.anomaly, 27u);
    EXPECT_EQ(det.reference, 15u);
    EXPECT_EQ(cascadeCounters(session),
              (std::array<std::uint64_t, 4>{459, 4, 32, 26}));
}

// ---------------------------------------------------- early abandoning

TEST(EarlyAbandon, FiniteResultIsExactInfMeansAtLeastCutoff)
{
    stats::Rng rng(808);
    for (int trial = 0; trial < 150; ++trial) {
        const std::size_t m =
            1 + static_cast<std::size_t>(rng.uniformInt(40));
        const std::size_t n =
            1 + static_cast<std::size_t>(rng.uniformInt(40));
        const auto x = randomSeries(m, rng);
        const auto y = randomSeries(n, rng);
        const double exact = ref::dtwDistance(x, y, 1.0);
        const double cutoff = exact * rng.uniform(0.3, 1.7) + 1e-9;
        const double got = dtwDistanceEarlyAbandon(x, y, 1.0, cutoff);
        if (std::isinf(got))
            ASSERT_GE(exact, cutoff);
        else
            ASSERT_EQ(got, exact);
    }
}

namespace {

/**
 * Row minima of the textbook rolling DP, in the reference's own
 * arithmetic. The rolling kernel abandons at the first row whose
 * minimum reaches the cutoff; that is the decision every abandoning
 * kernel must reproduce, input for input.
 */
std::vector<double>
rollingRowMinima(const MetricSeries &x, const MetricSeries &y, double p)
{
    const std::size_t m = x.size(), n = y.size();
    std::vector<double> prev(n), cur(n), minima;
    prev[0] = std::abs(x[0] - y[0]);
    for (std::size_t j = 1; j < n; ++j)
        prev[j] = prev[j - 1] + std::abs(x[0] - y[j]) + p;
    minima.push_back(*std::min_element(prev.begin(), prev.end()));
    for (std::size_t i = 1; i < m; ++i) {
        cur[0] = prev[0] + std::abs(x[i] - y[0]) + p;
        for (std::size_t j = 1; j < n; ++j)
            cur[j] = std::min({prev[j - 1], prev[j] + p,
                               cur[j - 1] + p}) +
                     std::abs(x[i] - y[j]);
        minima.push_back(*std::min_element(cur.begin(), cur.end()));
        std::swap(prev, cur);
    }
    return minima;
}

bool
rollingAbandons(const std::vector<double> &minima, double cutoff)
{
    return std::any_of(minima.begin(), minima.end(),
                       [&](double r) { return r >= cutoff; });
}

/** One anti-diagonal kernel entry point (dtw_simd.hh). */
using DiagKernelFn = double (*)(const double *, std::size_t,
                                const double *, std::size_t, double,
                                DistanceScratch &, double);

/** How often a suite saw each abandon outcome. */
struct Outcomes
{
    int abandoned = 0;
    int finished = 0;
};

/**
 * One input through one kernel (nullptr: the public dispatcher): the
 * full DP bit for bit against the reference, then, for p >= 0, the
 * abandon decision against the rolling kernel's at knife-edge
 * cutoffs — the exact value, one ulp either side of it, and on (and
 * one ulp above) a row minimum. Counter preservation
 * (model.dtw_early_abandons, the cascade memo, model.cascade_dp_runs)
 * rests on every kernel abandoning on exactly the rolling kernel's
 * inputs.
 */
void
expectSameAsReference(DiagKernelFn kernel, const MetricSeries &x,
                      const MetricSeries &y, double p, Outcomes &seen)
{
    constexpr double Inf = std::numeric_limits<double>::infinity();
    DistanceScratch &scr = threadDistanceScratch();
    const std::size_t m = x.size(), n = y.size();
    const auto run = [&](double cutoff) {
        if (kernel != nullptr)
            return kernel(x.data(), m, y.data(), n, p, scr, cutoff);
        return cutoff == Inf ? dtwDistance(x, y, p)
                             : dtwDistanceEarlyAbandon(x, y, p, cutoff);
    };
    const double exact = ref::dtwDistance(x, y, p);
    ASSERT_EQ(run(Inf), exact) << "m=" << m << " n=" << n << " p=" << p;
    if (p < 0.0)
        return; // abandoning needs p >= 0; a negative p prunes nothing
    const auto minima = rollingRowMinima(x, y, p);
    const double row_edge = minima[(m - 1) / 2];
    for (const double cutoff :
         {exact, std::nextafter(exact, Inf), std::nextafter(exact, 0.0),
          row_edge, std::nextafter(row_edge, Inf), minima.back(),
          std::nextafter(minima.back(), Inf)}) {
        const bool want = rollingAbandons(minima, cutoff);
        want ? ++seen.abandoned : ++seen.finished;
        ASSERT_EQ(run(cutoff), want ? Inf : exact)
            << "m=" << m << " n=" << n << " p=" << p
            << " cutoff=" << cutoff;
    }
}

/**
 * The exactness suite for one kernel: random inputs, then the ones
 * built to break a bound-pruned wavefront. DPs under 2^16 cells run
 * unpruned (dtw_simd.cc, PruneMinCells); the small families pin the
 * wavefront itself, its boundary peeling and its abandon test, and
 * the large ones the pruning.
 */
void
expectExactOnEveryInputFamily(DiagKernelFn kernel)
{
    Outcomes seen;
    const auto check = [&](const MetricSeries &x, const MetricSeries &y,
                           double p) {
        expectSameAsReference(kernel, x, y, p, seen);
        return !::testing::Test::HasFatalFailure();
    };
    constexpr std::array<double, 4> Penalties = {0.0, 0.5, 1.0, -0.5};
    stats::Rng rng(909);
    for (std::size_t m = 1; m <= 80; ++m) {
        for (const std::size_t n :
             {m, std::size_t{1} + m / 3, std::size_t{81} - m,
              std::size_t{1} +
                  static_cast<std::size_t>(rng.uniformInt(80))}) {
            for (const double p : Penalties)
                if (!check(randomSeries(m, rng), randomSeries(n, rng), p))
                    return;
        }
    }
    // One spike in each flat series: the cells below a cutoff split
    // into valleys that live on alternate diagonals, and one can die
    // out while another, at lower rows, carries on.
    for (const auto &[m, n] : {std::pair<std::size_t, std::size_t>{24, 40},
                               std::pair<std::size_t, std::size_t>{40, 24}}) {
        for (std::size_t a = 0; a < m; ++a) {
            for (std::size_t b = 0; b < n; ++b) {
                MetricSeries x(m, 0.0), y(n, 0.0);
                x[a] = y[b] = 5.0;
                for (const double p : {0.5, 1.0})
                    if (!check(x, y, p))
                        return;
            }
        }
    }

    // Pruned sizes from here on. Identical and partly identical
    // series: the diagonal path is optimal or nearly so, so cells tie
    // the bound (F == UB) and a prune at >= UB instead of > UB loses
    // the optimal path.
    for (const std::size_t len : {330u, 400u}) {
        const auto x = randomSeries(len, rng);
        MetricSeries patched = x;
        for (std::size_t k = len / 3; k < len / 2; ++k)
            patched[k] = rng.uniform(0.2, 4.0);
        MetricSeries longer = x;
        for (std::size_t k = 0; k < 15; ++k)
            longer.push_back(rng.uniform(0.2, 4.0));
        const MetricSeries prefix(x.begin(),
                                  x.begin() + static_cast<std::ptrdiff_t>(
                                                  2 * len / 3));
        const MetricSeries shifted(x.begin() + 5, x.end());
        for (const double p : Penalties)
            for (const MetricSeries *y : std::array<const MetricSeries *, 5>{
                     &x, &patched, &longer, &prefix, &shifted})
                if (!check(x, *y, p) || !check(*y, x, p))
                    return;
    }
    // Series of one behavior class played at different tempos: the
    // optimal path leaves the diagonal and the live range drifts.
    for (std::size_t k = 0; k < 6; ++k) {
        const auto x = knotSeries(
            260 + static_cast<std::size_t>(rng.uniformInt(200)), k % 2, rng);
        const auto y = knotSeries(
            260 + static_cast<std::size_t>(rng.uniformInt(200)), k % 2, rng);
        for (const double p : Penalties)
            if (!check(x, y, p))
                return;
    }
    // One spike in each flat series: the cells at or below the bound
    // split into valleys on alternate diagonals, so a diagonal's live
    // range can jump or empty out while another valley carries on —
    // the stale-slot hazard of a missing sentinel or of a computed
    // range that drops the d-2 term.
    // At 260 x 260 and p = 0.5 a spike at y[255] lets a second valley
    // die above the first, so the top of the range retreats and then
    // advances again over slots an older diagonal wrote.
    for (const auto &[m, n] : {std::pair<std::size_t, std::size_t>{260, 260},
                               std::pair<std::size_t, std::size_t>{200, 330}}) {
        for (const std::size_t a : {0u, 12u, 130u, 199u}) {
            for (const std::size_t b : {0u, 150u, 255u}) {
                MetricSeries x(m, 0.0), y(n, 0.0);
                x[a] = y[b] = 5.0;
                for (const double p : {0.0, 0.5, 1.0})
                    if (!check(x, y, p) || !check(y, x, p))
                        return;
            }
        }
    }
    // Skewed shapes, m >> n and n >> m: the bound's straight leg is
    // long and the diagonals are short.
    for (const auto &[m, n] :
         {std::pair<std::size_t, std::size_t>{4096, 17}, {17, 4096},
          {300, 260}, {33000, 2}, {2, 33000}}) {
        const auto x = randomSeries(m, rng);
        const auto y = randomSeries(n, rng);
        for (const double p : Penalties)
            if (!check(x, y, p))
                return;
    }
    // Both outcomes must be exercised for the suite to mean anything.
    EXPECT_GT(seen.abandoned, 1000);
    EXPECT_GT(seen.finished, 1000);
}

} // namespace

TEST(EarlyAbandon, DispatcherSameAbandonSetAsRollingRowMinimum)
{
    expectExactOnEveryInputFamily(nullptr);
}

TEST(PrunedKernel, ScalarExactOnEveryInputFamily)
{
    expectExactOnEveryInputFamily(detail::dtwDiagScalar);
}

TEST(PrunedKernel, Avx2ExactOnEveryInputFamily)
{
    if (!detail::dtwAvx2Available())
        GTEST_SKIP() << "host has no AVX2";
    expectExactOnEveryInputFamily(detail::dtwDiagAvx2);
}

TEST(PrunedKernel, Avx512ExactOnEveryInputFamily)
{
    if (!detail::dtwAvx512Available())
        GTEST_SKIP() << "host has no AVX-512F";
    expectExactOnEveryInputFamily(detail::dtwDiagAvx512);
}

TEST(PrunedKernel, CellTallyPinnedOnFixedSeedSet)
{
    // The deterministic work figure behind the pruning's speed claim:
    // DP cells computed (DistanceScratch::dtwCells) on a fixed-seed
    // set, for every pair's full DP and for a nearest-neighbor scan
    // that abandons at the best distance so far, as serve's scoring
    // does. Every kernel computes the same cells; p = 0 is serve's
    // penalty.
    constexpr double Inf = std::numeric_limits<double>::infinity();
    constexpr double P = 0.0;
    stats::Rng rng(1717);
    std::vector<MetricSeries> set;
    for (std::size_t i = 0; i < 12; ++i)
        set.push_back(knotSeries(
            260 + static_cast<std::size_t>(rng.uniformInt(200)), i % 3,
            rng));
    std::uint64_t all_cells = 0; // m * n over the full DPs
    for (std::size_t i = 0; i < set.size(); ++i)
        for (std::size_t j = i + 1; j < set.size(); ++j)
            all_cells += set[i].size() * set[j].size();

    std::vector<DiagKernelFn> kernels = {detail::dtwDiagScalar};
    if (detail::dtwAvx2Available())
        kernels.push_back(detail::dtwDiagAvx2);
    if (detail::dtwAvx512Available())
        kernels.push_back(detail::dtwDiagAvx512);
    DistanceScratch &scr = threadDistanceScratch();
    for (const DiagKernelFn kernel : kernels) {
        const auto dp = [&](const MetricSeries &x, const MetricSeries &y,
                            double cutoff) {
            return kernel(x.data(), x.size(), y.data(), y.size(), P, scr,
                          cutoff);
        };
        std::uint64_t before = scr.dtwCells;
        for (std::size_t i = 0; i < set.size(); ++i)
            for (std::size_t j = i + 1; j < set.size(); ++j)
                ASSERT_EQ(dp(set[i], set[j], Inf),
                          ref::dtwDistance(set[i], set[j], P));
        const std::uint64_t full_cells = scr.dtwCells - before;

        before = scr.dtwCells;
        for (std::size_t i = 0; i < set.size(); ++i) {
            double best = Inf;
            for (std::size_t j = 0; j < set.size(); ++j)
                if (j != i)
                    best = std::min(best, dp(set[i], set[j], best));
        }
        const std::uint64_t scan_cells = scr.dtwCells - before;

        EXPECT_EQ(full_cells, 7820387u);
        EXPECT_EQ(scan_cells, 8365278u);
        EXPECT_LT(full_cells, all_cells);
        RecordProperty("kept_cell_frac",
                       std::to_string(static_cast<double>(full_cells) /
                                      static_cast<double>(all_cells)));
    }
}

// ------------------------------------------------- parallel byte-ident

TEST(ParallelBuild, ChunkedWorkStealingByteIdenticalAtAnyJobs)
{
    constexpr std::size_t N = 40;
    std::vector<MetricSeries> series;
    stats::Rng rng(909);
    for (std::size_t i = 0; i < N; ++i)
        series.push_back(randomSeries(24 + i % 16, rng));
    const auto cell = [&](std::size_t i, std::size_t j) {
        return dtwDistance(series[i], series[j], 1.0);
    };
    const auto dm1 = DistanceMatrix::build(N, cell, 1);
    for (const unsigned jobs : {2u, 3u, 4u, 8u}) {
        const auto dmj = DistanceMatrix::build(N, cell, jobs);
        for (std::size_t i = 0; i < N; ++i)
            for (std::size_t j = i + 1; j < N; ++j)
                ASSERT_EQ(dm1.at(i, j), dmj.at(i, j))
                    << "jobs=" << jobs << " i=" << i << " j=" << j;
    }
}

// ------------------------------------------------- signature LB prune

TEST(SignaturePrune, IdentifyUnchangedByPrefixPrune)
{
    // The bank's prefix-sum prune must be invisible: identification
    // and confidence over a pruned scan equal a naive full scan.
    stats::Rng rng(111);
    SignatureBank bank(1.0);
    constexpr std::size_t Bank = 64;
    std::vector<MetricSeries> sigs;
    for (std::size_t i = 0; i < Bank; ++i) {
        sigs.push_back(classSeries(20 + i % 10, i % 5, i + 3));
        bank.add(sigs.back(), 1000.0 + static_cast<double>(i),
                 static_cast<int>(i % 5));
    }

    for (int trial = 0; trial < 60; ++trial) {
        const std::size_t which =
            static_cast<std::size_t>(rng.uniformInt(Bank));
        MetricSeries partial(
            sigs[which].begin(),
            sigs[which].begin() +
                static_cast<std::ptrdiff_t>(
                    1 + rng.uniformInt(sigs[which].size())));
        for (auto &v : partial)
            v += rng.uniform(-0.02, 0.02);

        // Naive scan: the exact pre-prune semantics of matchPartial.
        const double norm = static_cast<double>(partial.size());
        std::size_t best = SignatureBank::npos;
        double best_d = std::numeric_limits<double>::infinity();
        double second_d = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < bank.size(); ++i) {
            const auto &sig = bank.entry(i).series;
            const std::size_t common =
                std::min(partial.size(), sig.size());
            double d = 0.0;
            for (std::size_t k = 0; k < common; ++k)
                d += std::abs(partial[k] - sig[k]);
            for (std::size_t k = common; k < partial.size(); ++k)
                d += std::abs(partial[k]);
            d /= norm;
            if (d < best_d) {
                second_d = best_d;
                best_d = d;
                best = i;
            } else if (d < second_d) {
                second_d = d;
            }
        }

        ASSERT_EQ(bank.identify(partial), best);
        const auto id = bank.identifyWithConfidence(partial, 0.0);
        ASSERT_EQ(id.index, best);
        const double want_conf =
            second_d > 0.0 ? (second_d - best_d) / second_d : 0.0;
        ASSERT_EQ(id.confidence, want_conf);
    }
}
