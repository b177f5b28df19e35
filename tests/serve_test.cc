/**
 * @file
 * Serving-mode tests: streaming-vs-batch model equivalence, the
 * windowed/decaying statistics, kernel request-slot recycling, and
 * the end-to-end serve loop (determinism, shedding, degraded exit).
 */

#include <sstream>

#include <gtest/gtest.h>

#include "core/model/anomaly.hh"
#include "core/model/distance.hh"
#include "core/model/kmedoids.hh"
#include "core/model/streaming.hh"
#include "exp/serve.hh"
#include "fi/plan.hh"
#include "stats/online.hh"
#include "stats/rng.hh"

using namespace rbv;

namespace {

/** Deterministic synthetic series set (random-walk shapes). */
std::vector<core::MetricSeries>
makeSeries(std::size_t n, std::uint64_t seed)
{
    stats::Rng rng(seed);
    std::vector<core::MetricSeries> out;
    for (std::size_t i = 0; i < n; ++i) {
        core::MetricSeries s;
        double v = rng.uniform(0.5, 2.0);
        const std::size_t len = 8 + rng.uniformInt(9);
        for (std::size_t t = 0; t < len; ++t) {
            v += rng.uniform(-0.2, 0.2);
            s.push_back(v);
        }
        out.push_back(std::move(s));
    }
    return out;
}

// ---------------------------------------------------------- stats

TEST(Ewma, BiasCorrectedValueTracksConstantInput)
{
    stats::Ewma e(0.1);
    for (int i = 0; i < 5; ++i)
        e.add(3.5);
    EXPECT_DOUBLE_EQ(e.value(), 3.5);
}

TEST(EwmaMeanVar, CovIsZeroForConstantAndPositiveForSpread)
{
    stats::EwmaMeanVar flat(0.05);
    for (int i = 0; i < 100; ++i)
        flat.add(2.0);
    EXPECT_DOUBLE_EQ(flat.mean(), 2.0);
    EXPECT_NEAR(flat.cov(), 0.0, 1e-9);

    stats::EwmaMeanVar spread(0.05);
    for (int i = 0; i < 100; ++i)
        spread.add(i % 2 == 0 ? 1.0 : 3.0);
    EXPECT_GT(spread.cov(), 0.1);
}

TEST(SlidingQuantile, ExactOverTheWindowAndEvictsOldest)
{
    stats::SlidingQuantile q(4);
    for (double v : {1.0, 2.0, 3.0, 4.0})
        q.add(v);
    EXPECT_DOUBLE_EQ(q.median(), 2.0); // lower nearest-rank
    EXPECT_DOUBLE_EQ(q.quantile(1.0), 4.0);

    q.add(100.0); // evicts 1.0 -> window {2,3,4,100}
    EXPECT_DOUBLE_EQ(q.quantile(0.0), 2.0);
    EXPECT_DOUBLE_EQ(q.quantile(1.0), 100.0);
    EXPECT_EQ(q.size(), 4u);
    EXPECT_EQ(q.count(), 5u);
}

// ------------------------------------------- streaming signatures

TEST(StreamingSignatureBank, FillsToCapacityThenStaysBounded)
{
    const auto series = makeSeries(64, 11);
    core::StreamingSignatureBank bank(1.0, 16, stats::Rng(5));
    std::size_t admitted = 0;
    for (std::size_t i = 0; i < series.size(); ++i)
        admitted += bank.offer(series[i], 1000.0 + i,
                               static_cast<int>(i % 3));
    EXPECT_EQ(bank.bank().size(), 16u);
    EXPECT_EQ(bank.offered(), 64u);
    EXPECT_GE(admitted, 16u); // the fill plus some replacements
    EXPECT_LT(admitted, 64u); // but far from everything
}

TEST(StreamingSignatureBank, ReservoirIsDeterministicAtFixedSeed)
{
    const auto series = makeSeries(40, 3);
    auto run = [&] {
        core::StreamingSignatureBank bank(1.0, 8, stats::Rng(9));
        for (std::size_t i = 0; i < series.size(); ++i)
            bank.offer(series[i], 1.0, static_cast<int>(i));
        std::vector<int> classes;
        for (std::size_t i = 0; i < bank.bank().size(); ++i)
            classes.push_back(bank.bank().entry(i).classId);
        return classes;
    };
    EXPECT_EQ(run(), run());
}

// ---------------------------------------- streaming-vs-batch equiv

TEST(StreamingClusterModel, FullWindowReclusterMatchesBatchKMedoids)
{
    const auto series = makeSeries(24, 21);
    const double penalty = 0.1;
    const std::size_t k = 3;

    core::StreamingClusterModel::Config cc;
    cc.window = series.size();
    cc.sample = 0; // whole window, in arrival order: no rng draws
    cc.k = k;
    cc.asyncPenalty = penalty;
    cc.reclusterEvery = 0; // manual
    core::StreamingClusterModel model(cc, stats::Rng(77));
    for (const auto &s : series)
        model.observe(s);
    model.recluster();

    const auto dm = core::DistanceMatrix::build(
        series.size(), [&](std::size_t i, std::size_t j) {
            return core::dtwDistance(series[i], series[j], penalty);
        });
    stats::Rng batchRng(77);
    const auto batch = core::kMedoids(dm, k, batchRng);

    EXPECT_EQ(model.clustering().medoids, batch.medoids);
    EXPECT_EQ(model.clustering().assignment, batch.assignment);
    ASSERT_EQ(model.medoids().size(), batch.medoids.size());
    for (std::size_t c = 0; c < batch.medoids.size(); ++c)
        EXPECT_EQ(model.medoids()[c], series[batch.medoids[c]]);
}

TEST(RollingAnomalyScorer, WarmsUpThenFlagsOutliers)
{
    core::RollingAnomalyScorer::Config rc;
    rc.window = 32;
    rc.quantile = 0.9;
    rc.margin = 1.5;
    core::RollingAnomalyScorer scorer(rc);

    EXPECT_DOUBLE_EQ(scorer.threshold(), 0.0);
    bool flagged_during_warmup = false;
    for (int i = 0; i < 32; ++i)
        flagged_during_warmup |= scorer.observe(1.0);
    EXPECT_FALSE(flagged_during_warmup);
    EXPECT_GT(scorer.threshold(), 0.0);

    EXPECT_TRUE(scorer.observe(100.0));
    EXPECT_FALSE(scorer.observe(1.0));
    EXPECT_EQ(scorer.flaggedCount(), 1u);
}

// --------------------------------------------------- serve loop

exp::ServeConfig
smallServe(std::size_t requests)
{
    exp::ServeConfig cfg;
    cfg.appName = "micromix";
    cfg.base.seed = 42;
    cfg.arrival.qps = 20000.0;
    cfg.targetRequests = requests;
    cfg.checkpointEvery = requests / 2;
    cfg.window = 64;
    cfg.sample = 16;
    cfg.reclusterEvery = 32;
    cfg.bankCapacity = 32;
    cfg.quiet = false;
    return cfg;
}

TEST(ServeLoop, RecyclesRequestSlotsAndStaysBounded)
{
    std::ostringstream out;
    const auto res = exp::runServe(smallServe(2000), out);
    EXPECT_EQ(res.completed, 2000u);
    EXPECT_EQ(res.shed, 0u);
    // The kernel slot table must be bounded by peak concurrency,
    // not the stream length: 2000 requests, a few dozen slots.
    EXPECT_LT(res.requestSlots, 64u);
    EXPECT_FALSE(res.degraded());
    EXPECT_EQ(res.checkpoints.size(), 2u);
    for (const auto &cp : res.checkpoints)
        EXPECT_LT(cp.requestSlots, 64u);
}

TEST(ServeLoop, FixedSeedRunsAreByteIdentical)
{
    std::ostringstream a, b;
    exp::runServe(smallServe(1500), a);
    exp::runServe(smallServe(1500), b);
    EXPECT_FALSE(a.str().empty());
    EXPECT_EQ(a.str(), b.str());
}

TEST(ServeLoop, OverloadShedsInsteadOfQueueingWithoutBound)
{
    exp::ServeConfig cfg = smallServe(3000);
    cfg.arrival.qps = 2.0e6; // far beyond service capacity
    cfg.maxOutstanding = 32;
    std::ostringstream out;
    const auto res = exp::runServe(cfg, out);
    EXPECT_EQ(res.arrivals, 3000u);
    EXPECT_GT(res.shed, 0u);
    EXPECT_EQ(res.injected + res.shed, res.arrivals);
    EXPECT_LT(res.requestSlots, 64u);
}

TEST(ServeLoop, ReqStuckFaultMarksTheRunDegraded)
{
    exp::ServeConfig cfg = smallServe(2000);
    fi::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(fi::FaultPlan::parse("req-stuck(p=0.05,mult=12)",
                                     plan, error))
        << error;
    cfg.base.faults = std::make_shared<const fi::FaultPlan>(plan);
    std::ostringstream out;
    const auto res = exp::runServe(cfg, out);
    EXPECT_TRUE(res.degraded());
    EXPECT_GT(res.stalled, 0u);
    // Roughly p of the stream, not everything and not one slot's
    // worth: the fault hash must key the registration sequence.
    EXPECT_GT(res.stalled, 20u);
    EXPECT_LT(res.stalled, 400u);
    EXPECT_FALSE(res.injections.empty());
}

TEST(ServeLoop, DurationModeRunsWithoutARequestTarget)
{
    exp::ServeConfig cfg = smallServe(0);
    cfg.targetRequests = 0;
    cfg.durationSec = 0.02;
    cfg.checkpointEvery = 100;
    std::ostringstream out;
    const auto res = exp::runServe(cfg, out);
    EXPECT_GT(res.completed, 100u);
    EXPECT_LT(res.requestSlots, 64u);
}

TEST(ServeGenerator, ResolvesCatalogueAppsAndMicromix)
{
    EXPECT_EQ(exp::makeServeGenerator("micromix")->appName(),
              "micromix");
    EXPECT_EQ(exp::makeServeGenerator("tpcc")->appName(), "tpcc");
    EXPECT_THROW(exp::makeServeGenerator("nonesuch"),
                 std::invalid_argument);
}

} // namespace
