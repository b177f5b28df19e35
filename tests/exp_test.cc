/**
 * @file
 * Tests for the experiment-harness data reductions and the CLI
 * parser.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "exp/analysis.hh"
#include "exp/cli.hh"

using namespace rbv;
using namespace rbv::exp;

namespace {

RequestRecord
makeRecord(double ins, double cycles, double refs, double misses)
{
    RequestRecord r;
    r.totals.instructions = ins;
    r.totals.cycles = cycles;
    r.totals.l2Refs = refs;
    r.totals.l2Misses = misses;
    return r;
}

/** Append one period to a record's timeline. */
void
addPeriod(RequestRecord &r, double ins, double cycles,
          double refs = 0.0, double misses = 0.0)
{
    core::Period p;
    p.instructions = ins;
    p.cycles = cycles;
    p.l2Refs = refs;
    p.l2Misses = misses;
    r.timeline.periods.push_back(p);
}

} // namespace

// ------------------------------------------------------------- Cli

TEST(Cli, ParsesSpaceAndEqualsForms)
{
    const char *argv[] = {"prog", "--requests", "42", "--seed=7",
                          "--csv"};
    Cli cli(5, const_cast<char **>(argv));
    EXPECT_EQ(cli.getInt("requests", 0), 42);
    EXPECT_EQ(cli.getU64("seed", 0), 7u);
    EXPECT_TRUE(cli.has("csv"));
    EXPECT_FALSE(cli.has("missing"));
    EXPECT_EQ(cli.getInt("missing", 9), 9);
}

TEST(Cli, DoubleAndStringValues)
{
    const char *argv[] = {"prog", "--period", "2.5", "--app", "tpch"};
    Cli cli(5, const_cast<char **>(argv));
    EXPECT_DOUBLE_EQ(cli.getDouble("period", 0.0), 2.5);
    EXPECT_EQ(cli.getStr("app", "x"), "tpch");
    EXPECT_EQ(cli.getStr("other", "def"), "def");
}

TEST(Cli, BooleanFollowedByFlag)
{
    const char *argv[] = {"prog", "--csv", "--n", "3"};
    Cli cli(4, const_cast<char **>(argv));
    EXPECT_TRUE(cli.has("csv"));
    EXPECT_EQ(cli.getInt("n", 0), 3);
}

TEST(Cli, GetBoolForms)
{
    const char *argv[] = {"prog", "--bare",     "--on=true",
                          "--off", "no",        "--zero=0",
                          "--one", "1"};
    Cli cli(8, const_cast<char **>(argv));
    EXPECT_TRUE(cli.getBool("bare", false));
    EXPECT_TRUE(cli.getBool("on", false));
    EXPECT_FALSE(cli.getBool("off", true));
    EXPECT_FALSE(cli.getBool("zero", true));
    EXPECT_TRUE(cli.getBool("one", false));
    EXPECT_TRUE(cli.getBool("absent", true));
    EXPECT_FALSE(cli.getBool("absent", false));
}

TEST(Cli, ReportsUnknownFlags)
{
    const char *argv[] = {"prog", "--seed", "1", "--typo", "5"};
    Cli cli(5, const_cast<char **>(argv));
    const auto bad = cli.unknown({"seed", "requests"});
    ASSERT_EQ(bad.size(), 1u);
    EXPECT_EQ(bad[0], "typo");
    EXPECT_TRUE(cli.unknown({"seed", "typo"}).empty());
}

// -------------------------------------------------------- overall/CoV

TEST(Analysis, OverallMetricIsRatioOfTotals)
{
    std::vector<RequestRecord> recs;
    recs.push_back(makeRecord(100, 300, 10, 5));
    recs.push_back(makeRecord(300, 300, 30, 5));
    // CPI = 600 / 400 = 1.5 (not the mean of 3.0 and 1.0).
    EXPECT_DOUBLE_EQ(overallMetric(recs, core::Metric::Cpi), 1.5);
    EXPECT_DOUBLE_EQ(overallMetric(recs, core::Metric::L2MissRatio),
                     0.25);
}

TEST(Analysis, MetricWeightsFollowDenominators)
{
    sim::CounterSnapshot c;
    c.instructions = 100;
    c.l2Refs = 40;
    EXPECT_DOUBLE_EQ(metricWeight(c, core::Metric::Cpi), 100.0);
    EXPECT_DOUBLE_EQ(metricWeight(c, core::Metric::L2RefsPerIns),
                     100.0);
    EXPECT_DOUBLE_EQ(metricWeight(c, core::Metric::L2MissRatio),
                     40.0);
}

TEST(Analysis, CovZeroForUniformRequests)
{
    std::vector<RequestRecord> recs;
    for (int i = 0; i < 4; ++i) {
        auto r = makeRecord(100, 200, 0, 0);
        addPeriod(r, 50, 100);
        addPeriod(r, 50, 100);
        recs.push_back(std::move(r));
    }
    const auto cov = covInterIntra(recs, core::Metric::Cpi);
    EXPECT_NEAR(cov.inter, 0.0, 1e-12);
    EXPECT_NEAR(cov.withIntra, 0.0, 1e-12);
}

TEST(Analysis, IntraCovSeesWithinRequestVariation)
{
    // Two requests with equal totals (inter CoV 0) but strongly
    // varying halves (intra CoV > 0) -- the Sec. 2.3 phenomenon.
    std::vector<RequestRecord> recs;
    for (int i = 0; i < 2; ++i) {
        auto r = makeRecord(200, 400, 0, 0);
        addPeriod(r, 100, 100); // CPI 1
        addPeriod(r, 100, 300); // CPI 3
        recs.push_back(std::move(r));
    }
    const auto cov = covInterIntra(recs, core::Metric::Cpi);
    EXPECT_NEAR(cov.inter, 0.0, 1e-12);
    EXPECT_NEAR(cov.withIntra, 0.5, 1e-12);
}

TEST(Analysis, EmptyRecordsSafe)
{
    const std::vector<RequestRecord> recs;
    const auto cov = covInterIntra(recs, core::Metric::Cpi);
    EXPECT_EQ(cov.inter, 0.0);
    EXPECT_EQ(cov.withIntra, 0.0);
    EXPECT_EQ(medianInstructions(recs), 0.0);
}

// --------------------------------------------------------- gap CDF

TEST(Analysis, GapCdfLengthBiased)
{
    // One gap of 10 and one of 90 (time units). From an arbitrary
    // instant, P(next <= 10) = (10 + 10) / 100 = 0.2.
    std::vector<SyscallGap> gaps = {{10.0, 1.0}, {90.0, 9.0}};
    const auto cdf = syscallGapCdf(gaps, {10.0, 90.0, 1000.0}, true);
    EXPECT_NEAR(cdf[0], 0.2, 1e-12);
    EXPECT_NEAR(cdf[1], 1.0, 1e-12);
    EXPECT_NEAR(cdf[2], 1.0, 1e-12);
}

TEST(Analysis, GapCdfInstructionDomain)
{
    std::vector<SyscallGap> gaps = {{10.0, 100.0}, {10.0, 300.0}};
    const auto cdf = syscallGapCdf(gaps, {100.0}, false);
    EXPECT_NEAR(cdf[0], 0.5, 1e-12); // (100 + 100) / 400
}

TEST(Analysis, GapCdfEmptySafe)
{
    const auto cdf = syscallGapCdf({}, {10.0}, true);
    EXPECT_EQ(cdf[0], 0.0);
}

// ------------------------------------------------- per-request extract

TEST(Analysis, RequestExtractionHelpers)
{
    std::vector<RequestRecord> recs;
    recs.push_back(makeRecord(100, 150, 0, 0));
    recs.push_back(makeRecord(100, 250, 0, 0));
    const auto cpis = requestCpis(recs);
    EXPECT_DOUBLE_EQ(cpis[0], 1.5);
    EXPECT_DOUBLE_EQ(cpis[1], 2.5);
    const auto cpu = requestCpuCycles(recs);
    EXPECT_DOUBLE_EQ(cpu[0], 150.0);
}

TEST(Analysis, PeakCpiUsesTimelineQuantile)
{
    auto r = makeRecord(300, 600, 0, 0);
    for (int i = 0; i < 9; ++i)
        addPeriod(r, 10, 10); // CPI 1
    addPeriod(r, 10, 90);     // CPI 9 spike
    std::vector<RequestRecord> recs;
    recs.push_back(std::move(r));
    const auto peak = requestPeakCpis(recs, 0.90);
    EXPECT_GT(peak[0], 1.0);
    // Falls back to totals CPI when the timeline is empty.
    std::vector<RequestRecord> bare;
    bare.push_back(makeRecord(100, 200, 0, 0));
    EXPECT_DOUBLE_EQ(requestPeakCpis(bare)[0], 2.0);
}

TEST(Analysis, DefaultBinScalesWithMedianLength)
{
    std::vector<RequestRecord> recs;
    recs.push_back(makeRecord(6.0e6, 1, 0, 0));
    recs.push_back(makeRecord(6.0e6, 1, 0, 0));
    EXPECT_DOUBLE_EQ(defaultBinIns(recs, 60), 1.0e5);
    // Floors at 1000 instructions.
    std::vector<RequestRecord> tiny;
    tiny.push_back(makeRecord(100, 1, 0, 0));
    EXPECT_DOUBLE_EQ(defaultBinIns(tiny, 60), 1000.0);
}

TEST(Analysis, MissesQuantileOverPeriods)
{
    std::vector<RequestRecord> recs;
    auto r = makeRecord(0, 0, 0, 0);
    for (int i = 1; i <= 10; ++i)
        addPeriod(r, 100, 100, 10, static_cast<double>(i));
    recs.push_back(std::move(r));
    // misses/ins of periods: 0.01 .. 0.10.
    EXPECT_NEAR(missesPerInsQuantile(recs, 0.5), 0.055, 1e-12);
    EXPECT_NEAR(missesPerInsQuantile(recs, 1.0), 0.10, 1e-12);
}
