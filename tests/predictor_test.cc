/**
 * @file
 * Tests for the online behavior predictors (Sec. 5.1).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/predict/predictor.hh"
#include "stats/rng.hh"

using namespace rbv::core;

TEST(RequestAverage, TimeWeightedMean)
{
    RequestAveragePredictor p;
    p.observe(1.0, 2.0);
    p.observe(3.0, 6.0);
    EXPECT_DOUBLE_EQ(p.predict(), 5.0); // (2 + 18) / 4
}

TEST(RequestAverage, ResetClears)
{
    RequestAveragePredictor p;
    p.observe(1.0, 5.0);
    p.reset();
    EXPECT_DOUBLE_EQ(p.predict(), 0.0);
}

TEST(LastValue, TracksLastObservation)
{
    LastValuePredictor p;
    p.observe(1.0, 3.0);
    p.observe(1.0, 7.0);
    EXPECT_DOUBLE_EQ(p.predict(), 7.0);
}

TEST(Ewma, MatchesEquation4)
{
    // E_k = alpha E_{k-1} + (1 - alpha) O_k, seeded by the first
    // observation.
    EwmaPredictor p(0.6);
    p.observe(1.0, 10.0);
    EXPECT_DOUBLE_EQ(p.predict(), 10.0);
    p.observe(1.0, 0.0);
    EXPECT_DOUBLE_EQ(p.predict(), 6.0);
    p.observe(1.0, 6.0);
    EXPECT_DOUBLE_EQ(p.predict(), 0.6 * 6.0 + 0.4 * 6.0);
}

TEST(Ewma, AlphaOneFreezes)
{
    EwmaPredictor p(1.0);
    p.observe(1.0, 5.0);
    p.observe(1.0, 100.0);
    EXPECT_DOUBLE_EQ(p.predict(), 5.0);
}

TEST(Ewma, AlphaZeroIsLastValue)
{
    EwmaPredictor p(0.0);
    p.observe(1.0, 5.0);
    p.observe(1.0, 100.0);
    EXPECT_DOUBLE_EQ(p.predict(), 100.0);
}

TEST(VaEwma, UnitLengthMatchesEwma)
{
    // With every observation of length t_hat, vaEWMA degenerates to
    // the plain EWMA (Eq. 5 with t_k = t_hat).
    EwmaPredictor e(0.7);
    VaEwmaPredictor v(0.7, 100.0);
    rbv::stats::Rng rng(3);
    for (int i = 0; i < 50; ++i) {
        const double x = rng.uniform();
        e.observe(100.0, x);
        v.observe(100.0, x);
        EXPECT_NEAR(e.predict(), v.predict(), 1e-12);
    }
}

TEST(VaEwma, LongObservationAgesMore)
{
    // One long observation must displace the old estimate more than
    // one short observation of the same value.
    VaEwmaPredictor short_obs(0.6, 100.0);
    VaEwmaPredictor long_obs(0.6, 100.0);
    short_obs.observe(100.0, 10.0);
    long_obs.observe(100.0, 10.0);
    short_obs.observe(10.0, 0.0);   // t = 0.1 t_hat
    long_obs.observe(1000.0, 0.0);  // t = 10 t_hat
    EXPECT_GT(short_obs.predict(), long_obs.predict());
    // Closed form: E = alpha^(t/t_hat) * 10.
    EXPECT_NEAR(short_obs.predict(), std::pow(0.6, 0.1) * 10.0, 1e-12);
    EXPECT_NEAR(long_obs.predict(), std::pow(0.6, 10.0) * 10.0, 1e-12);
}

TEST(VaEwma, SplitObservationEquivalence)
{
    // Aging must compose: observing a value over two half-length
    // periods equals observing it once over the full length.
    VaEwmaPredictor whole(0.5, 100.0);
    VaEwmaPredictor halves(0.5, 100.0);
    whole.observe(100.0, 4.0);
    halves.observe(100.0, 4.0);
    whole.observe(200.0, 0.0);
    halves.observe(100.0, 0.0);
    halves.observe(100.0, 0.0);
    EXPECT_NEAR(whole.predict(), halves.predict(), 1e-12);
}

TEST(Predictors, CloneIsFresh)
{
    VaEwmaPredictor p(0.6, 100.0);
    p.observe(100.0, 9.0);
    auto c = p.clone();
    EXPECT_DOUBLE_EQ(c->predict(), 0.0);
    EXPECT_EQ(c->name(), p.name());
}

TEST(Predictors, Names)
{
    EXPECT_EQ(RequestAveragePredictor().name(), "Request average");
    EXPECT_EQ(LastValuePredictor().name(), "Last value");
    EXPECT_EQ(EwmaPredictor(0.6).name(), "EWMA a=0.6");
    EXPECT_EQ(VaEwmaPredictor(0.3, 1.0).name(), "vaEWMA a=0.3");
}

// ------------------------------------ corrupted-telemetry guards

TEST(Predictors, NonFiniteObservationsAreIgnored)
{
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();

    RequestAveragePredictor avg;
    avg.observe(1.0, 4.0);
    avg.observe(nan, 100.0);
    avg.observe(1.0, nan);
    avg.observe(-5.0, 100.0); // non-positive window
    EXPECT_DOUBLE_EQ(avg.predict(), 4.0);

    LastValuePredictor last;
    last.observe(1.0, 3.0);
    last.observe(1.0, inf);
    EXPECT_DOUBLE_EQ(last.predict(), 3.0);

    EwmaPredictor ewma(0.5);
    ewma.observe(1.0, 8.0);
    ewma.observe(1.0, nan);
    EXPECT_DOUBLE_EQ(ewma.predict(), 8.0);

    VaEwmaPredictor va(0.6, 1.0);
    va.observe(1.0, 2.0);
    va.observe(1.0, -inf);
    EXPECT_DOUBLE_EQ(va.predict(), 2.0);
}

TEST(VaEwma, DegenerateWindowLengthsDoNotAmplifyHistory)
{
    // A negative or non-finite window length must not yield
    // alpha^(t/t_hat) > 1 (amplifying history) or NaN; it falls back
    // to plain-alpha aging.
    VaEwmaPredictor p(0.6, 100.0);
    p.observe(100.0, 10.0);
    p.observe(-50.0, 0.0);
    EXPECT_TRUE(std::isfinite(p.predict()));
    EXPECT_DOUBLE_EQ(p.predict(), 0.6 * 10.0);
    p.observe(std::nan(""), 0.0);
    EXPECT_TRUE(std::isfinite(p.predict()));
    EXPECT_LE(p.predict(), 10.0);
}

TEST(Predictors, VaEwmaTracksPhaseChangeFasterThanAverage)
{
    // A step change: the adaptive filter must converge to the new
    // level while the request-average lags — the reason Fig. 11
    // favors vaEWMA.
    RequestAveragePredictor avg;
    VaEwmaPredictor va(0.6, 1.0);
    for (int i = 0; i < 50; ++i) {
        avg.observe(1.0, 1.0);
        va.observe(1.0, 1.0);
    }
    for (int i = 0; i < 10; ++i) {
        avg.observe(1.0, 5.0);
        va.observe(1.0, 5.0);
    }
    EXPECT_GT(va.predict(), 4.5);
    EXPECT_LT(avg.predict(), 2.5);
}
