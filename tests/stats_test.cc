/**
 * @file
 * Unit tests for the statistics toolkit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <vector>

#include "stats/online.hh"
#include "stats/rng.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

using namespace rbv::stats;

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a() == b();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanConverges)
{
    Rng rng(9);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.uniformInt(17), 17u);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(3.0);
    EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, NormalMoments)
{
    Rng rng(17);
    double sum = 0.0, sum2 = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal(5.0, 2.0);
        sum += x;
        sum2 += x * x;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 5.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, DiscreteRespectsWeights)
{
    Rng rng(19);
    const std::vector<double> w = {1.0, 3.0, 6.0};
    std::vector<int> counts(3, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.discrete(w)];
    EXPECT_NEAR(counts[0] / double(n), 0.1, 0.01);
    EXPECT_NEAR(counts[1] / double(n), 0.3, 0.01);
    EXPECT_NEAR(counts[2] / double(n), 0.6, 0.01);
}

TEST(Rng, DiscreteEmptyReturnsZero)
{
    Rng rng(1);
    EXPECT_EQ(rng.discrete({}), 0u);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(42);
    Rng b = a.split();
    // The child stream must not equal the parent continuation.
    int same = 0;
    for (int i = 0; i < 50; ++i)
        same += a() == b();
    EXPECT_LT(same, 2);
}

TEST(Zipf, FirstItemMostPopular)
{
    Rng rng(23);
    ZipfSampler zipf(100, 1.0);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[zipf.sample(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[10], counts[90]);
}

TEST(Zipf, AllSamplesInRange)
{
    Rng rng(29);
    ZipfSampler zipf(10, 0.8);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(zipf.sample(rng), 10u);
}

// -------------------------------------------------------- OnlineMeanVar

TEST(OnlineMeanVar, KnownValues)
{
    OnlineMeanVar acc;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(x);
    EXPECT_EQ(acc.count(), 8u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_NEAR(acc.stddev(), 2.0, 1e-12);
}

TEST(OnlineMeanVar, EmptyIsZero)
{
    OnlineMeanVar acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_EQ(acc.mean(), 0.0);
    EXPECT_EQ(acc.variance(), 0.0);
}

TEST(OnlineMeanVar, SampleVarianceUsesNMinusOne)
{
    OnlineMeanVar acc;
    acc.add(1.0);
    acc.add(3.0);
    EXPECT_DOUBLE_EQ(acc.sampleVariance(), 2.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 1.0);
}

TEST(OnlineMeanVar, MergeMatchesBulk)
{
    OnlineMeanVar a, b, bulk;
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.normal(2.0, 3.0);
        (i % 2 ? a : b).add(x);
        bulk.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), bulk.count());
    EXPECT_NEAR(a.mean(), bulk.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), bulk.variance(), 1e-9);
}

// ---------------------------------------------------------- WeightedCov

TEST(WeightedCov, UniformValuesHaveZeroCov)
{
    WeightedCov cov;
    cov.add(1.0, 3.0);
    cov.add(5.0, 3.0);
    EXPECT_NEAR(cov.cov(), 0.0, 1e-12);
}

TEST(WeightedCov, KnownTwoPoint)
{
    // Weights 1,1; values 1,3: mean 2, var 1, cov 0.5.
    WeightedCov cov;
    cov.add(1.0, 1.0);
    cov.add(1.0, 3.0);
    EXPECT_NEAR(cov.cov(), 0.5, 1e-12);
}

TEST(WeightedCov, WeightingMatters)
{
    // Heavy weight on one value pulls the weighted mean toward it.
    WeightedCov cov;
    cov.add(9.0, 1.0);
    cov.add(1.0, 11.0);
    EXPECT_NEAR(cov.weightedMean(), 2.0, 1e-12);
}

TEST(WeightedCov, ExternalXbar)
{
    WeightedCov cov;
    cov.add(1.0, 2.0);
    cov.add(1.0, 2.0);
    // Around xbar=1: E[(x-1)^2]=1, cov=1.
    EXPECT_NEAR(cov.cov(1.0), 1.0, 1e-12);
}

TEST(WeightedCov, EmptyAndZeroXbarSafe)
{
    WeightedCov cov;
    EXPECT_EQ(cov.cov(), 0.0);
    cov.add(1.0, 1.0);
    EXPECT_EQ(cov.cov(0.0), 0.0);
}

// --------------------------------------------------------- WeightedRmse

TEST(WeightedRmse, PerfectPredictionIsZero)
{
    WeightedRmse rmse;
    rmse.add(2.0, 5.0, 5.0);
    EXPECT_EQ(rmse.rmse(), 0.0);
}

TEST(WeightedRmse, KnownError)
{
    WeightedRmse rmse;
    rmse.add(1.0, 1.0, 2.0);
    rmse.add(3.0, 4.0, 4.0);
    // sum t e^2 = 1, sum t = 4 -> sqrt(1/4) = 0.5.
    EXPECT_NEAR(rmse.rmse(), 0.5, 1e-12);
}

// ------------------------------------------------------------ Quantiles

TEST(Quantile, MedianOfOddSet)
{
    EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(Quantile, InterpolatesBetweenPoints)
{
    EXPECT_DOUBLE_EQ(quantile({0.0, 10.0}, 0.25), 2.5);
}

TEST(Quantile, ExtremesAndClamping)
{
    const std::vector<double> v = {5.0, 1.0, 9.0};
    EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(v, 1.0), 9.0);
    EXPECT_DOUBLE_EQ(quantile(v, -1.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(v, 2.0), 9.0);
}

TEST(Quantile, EmptyReturnsZero)
{
    EXPECT_EQ(quantile({}, 0.5), 0.0);
}

TEST(Quantile, BatchMatchesSingle)
{
    const std::vector<double> v = {4.0, 8.0, 15.0, 16.0, 23.0, 42.0};
    const auto qs = quantiles(v, {0.1, 0.5, 0.9});
    EXPECT_DOUBLE_EQ(qs[0], quantile(v, 0.1));
    EXPECT_DOUBLE_EQ(qs[1], quantile(v, 0.5));
    EXPECT_DOUBLE_EQ(qs[2], quantile(v, 0.9));
}

// ------------------------------------------------------------ Histogram

// ------------------------------------------------------ SlidingQuantile

namespace {

/** The window's q-quantile by selection: the oracle for the sorted copy. */
double
selectQuantile(std::vector<double> window, double q)
{
    if (window.empty())
        return 0.0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(window.size() - 1));
    std::nth_element(window.begin(),
                     window.begin() + static_cast<std::ptrdiff_t>(idx),
                     window.end());
    return window[idx];
}

} // namespace

TEST(SlidingQuantile, MatchesSelectionOracleBeforeAndAfterWrap)
{
    constexpr double Qs[] = {0.0, 0.5, 0.99, 1.0};
    for (const std::size_t cap : {1u, 4u, 128u, 1024u}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            Rng rng(seed * 977 + cap);
            SlidingQuantile sq(cap);
            std::deque<double> window;
            // Three windows' worth: fill, wrap, and wrap again.
            const std::size_t n = 3 * cap + 7;
            for (std::size_t i = 0; i < n; ++i) {
                // Few distinct values, so duplicates are common,
                // with an occasional wide draw for the tails.
                const double x =
                    rng.uniformInt(8) == 0
                        ? rng.normal(0.0, 1e3)
                        : static_cast<double>(rng.uniformInt(16));
                sq.add(x);
                window.push_back(x);
                if (window.size() > cap)
                    window.pop_front();
                ASSERT_EQ(sq.size(), window.size());
                ASSERT_EQ(sq.count(), i + 1);
                const std::vector<double> w(window.begin(),
                                            window.end());
                for (const double q : Qs)
                    ASSERT_EQ(sq.quantile(q), selectQuantile(w, q))
                        << "cap " << cap << " seed " << seed
                        << " after " << i + 1 << " adds, q=" << q;
            }
        }
    }
}

TEST(SlidingQuantile, EmptyAndOutOfRangeQ)
{
    SlidingQuantile sq(8);
    EXPECT_EQ(sq.quantile(0.5), 0.0);
    for (const double v : {5.0, -1.0, 3.0})
        sq.add(v);
    EXPECT_EQ(sq.quantile(-2.0), -1.0);
    EXPECT_EQ(sq.quantile(7.0), 5.0);
    EXPECT_EQ(SlidingQuantile(0).capacity(), 1u);
}

TEST(Histogram, BinningAndProbability)
{
    Histogram h(0.0, 1.0, 4);
    for (double x : {0.5, 1.5, 1.6, 3.9})
        h.add(x);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(1), 2u);
    EXPECT_EQ(h.count(3), 1u);
    EXPECT_DOUBLE_EQ(h.probability(1), 0.5);
    EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, UnderOverflow)
{
    Histogram h(1.0, 1.0, 2);
    h.add(0.5);
    h.add(5.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 2u);
}

TEST(Histogram, BinEdges)
{
    Histogram h(1.0, 0.5, 3);
    EXPECT_DOUBLE_EQ(h.binLo(0), 1.0);
    EXPECT_DOUBLE_EQ(h.binCenter(2), 2.25);
}

TEST(Histogram, AsciiRenders)
{
    Histogram h(0.0, 1.0, 2);
    h.add(0.5);
    const std::string s = h.ascii(10);
    EXPECT_NE(s.find('#'), std::string::npos);
}

// ---------------------------------------------------------------- Table

TEST(Table, AlignsAndCounts)
{
    Table t({"a", "long_header"});
    t.addRow({"x", "y"});
    t.addRow({"wide_cell"});
    EXPECT_EQ(t.numRows(), 2u);
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("long_header"), std::string::npos);
    EXPECT_NE(os.str().find("wide_cell"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, Formatting)
{
    EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
    EXPECT_EQ(Table::pct(0.1234, 1), "12.3%");
}
