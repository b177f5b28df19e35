/**
 * @file
 * Fault-injection layer tests: plan parsing, the zero-cost-dormant
 * guarantee (a zero-probability plan is result-identical to no plan),
 * injection-log determinism across --jobs levels, per-injector effect
 * plus graceful degradation, the runner's job-fault contract, and the
 * ground-truth ranking evaluator.
 */

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/runner.hh"
#include "exp/scenario.hh"
#include "fi/eval.hh"
#include "fi/injection.hh"
#include "fi/plan.hh"

using namespace rbv;
using namespace rbv::exp;

namespace {

/** A tiny but representative scenario (TPCC, 2 cores). */
ScenarioConfig
smallCfg()
{
    ScenarioConfig c;
    c.app = wl::App::Tpcc;
    c.requests = 30;
    c.warmup = 3;
    c.numCores = 2;
    c.seed = 11;
    return c;
}

ScenarioConfig
withPlan(const fi::FaultPlan &plan)
{
    ScenarioConfig c = smallCfg();
    c.faults = std::make_shared<const fi::FaultPlan>(plan);
    return c;
}

/** Field-wise equality of two scenario runs. */
void
expectSameRun(const ScenarioResult &a, const ScenarioResult &b)
{
    EXPECT_EQ(a.wallCycles, b.wallCycles);
    EXPECT_EQ(a.busyCycles, b.busyCycles);
    EXPECT_EQ(a.samplerStats.totalSamples(),
              b.samplerStats.totalSamples());
    EXPECT_EQ(a.samplerStats.overheadCycles,
              b.samplerStats.overheadCycles);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        const RequestRecord &x = a.records[i];
        const RequestRecord &y = b.records[i];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.totals.cycles, y.totals.cycles);
        EXPECT_EQ(x.totals.instructions, y.totals.instructions);
        EXPECT_EQ(x.totals.l2Refs, y.totals.l2Refs);
        EXPECT_EQ(x.totals.l2Misses, y.totals.l2Misses);
        EXPECT_EQ(x.timeline.periods.size(),
                  y.timeline.periods.size());
    }
}

} // namespace

// ------------------------------------------------------ plan parsing

TEST(FaultPlan, ParsesAndRoundTrips)
{
    fi::FaultPlan plan;
    std::string err;
    ASSERT_TRUE(fi::FaultPlan::parse(
        "irq-drop(p=0.2); req-stuck(p=0.05, mult=4)", plan, err))
        << err;
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan.specs()[0].kind, fi::FaultKind::IrqDrop);
    EXPECT_DOUBLE_EQ(plan.specs()[0].param("p", 0.0), 0.2);
    EXPECT_EQ(plan.specs()[1].kind, fi::FaultKind::ReqStuck);
    EXPECT_DOUBLE_EQ(plan.specs()[1].param("mult", 0.0), 4.0);

    // summary() is re-parseable and stable under a round trip.
    fi::FaultPlan again;
    ASSERT_TRUE(fi::FaultPlan::parse(plan.summary(), again, err))
        << err;
    EXPECT_EQ(again.summary(), plan.summary());
}

TEST(FaultPlan, RejectsTyposInsteadOfInjectingNothing)
{
    fi::FaultPlan plan;
    std::string err;
    EXPECT_FALSE(fi::FaultPlan::parse("irq-dorp(p=0.2)", plan, err));
    EXPECT_NE(err.find("unknown fault"), std::string::npos);
    EXPECT_FALSE(fi::FaultPlan::parse("irq-drop(q=0.2)", plan, err));
    EXPECT_NE(err.find("no parameter"), std::string::npos);
    EXPECT_FALSE(fi::FaultPlan::parse("irq-drop(p=0.2", plan, err));
    EXPECT_NE(err.find("missing ')'"), std::string::npos);
    EXPECT_FALSE(fi::FaultPlan::parse("", plan, err));
    EXPECT_FALSE(fi::FaultPlan::parse("irq-drop(p)", plan, err));
}

TEST(FaultPlan, RejectsValuesThatAreNotFiniteNumbers)
{
    fi::FaultPlan plan;
    std::string err;
    EXPECT_FALSE(
        fi::FaultPlan::parse("req-stuck(p=1,mult=inf)", plan, err));
    EXPECT_NE(err.find("\"mult\" of fault \"req-stuck\""),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("not a finite number"), std::string::npos) << err;
    for (const char *bad :
         {"irq-drop(p=nan)", "irq-drop(p=-inf)", "irq-drop(p=abc)",
          "irq-drop(p=0.2x)", "irq-drop(p=)", "sys-stall(cycles=1e999)",
          "node-crash(node=1,at-ms=infinity)"}) {
        EXPECT_FALSE(fi::FaultPlan::parse(bad, plan, err)) << bad;
        EXPECT_NE(err.find("not a finite number"), std::string::npos)
            << bad << ": " << err;
    }

    // All or nothing: one bad value anywhere leaves @p out untouched.
    ASSERT_TRUE(fi::FaultPlan::parse("ctx-loss(p=0.5)", plan, err));
    EXPECT_FALSE(fi::FaultPlan::parse(
        "irq-drop(p=0.1); req-stuck(p=0.1,mult=nan)", plan, err));
    EXPECT_EQ(plan.summary(), "ctx-loss(p=0.5)");

    // Any finite spelling strtod reads is fine.
    ASSERT_TRUE(fi::FaultPlan::parse(
        "link-delay(node=-1,p=1e-3,add-us=0x10)", plan, err))
        << err;
    EXPECT_DOUBLE_EQ(plan.specs()[0].param("add-us", 0.0), 16.0);
    EXPECT_DOUBLE_EQ(plan.specs()[0].param("node", 0.0), -1.0);
}

TEST(FaultPlan, RejectsValuesOutsideEachParameterRange)
{
    // Ids, times, probabilities, multipliers and the bounded scalars
    // each declare a range. A value outside it used to reach an
    // undefined cast to a tick or an id (node=1e300), or silently
    // inject nothing (a negative crash time).
    fi::FaultPlan plan;
    std::string err;
    for (const auto &[bad, key] :
         std::vector<std::pair<std::string, std::string>>{
             {"node-crash(node=1,at-ms=-5)", "at-ms"},
             {"node-crash(node=1e300)", "node"},
             {"node-crash(node=-1)", "node"},
             {"node-degrade(node=1.5)", "node"},
             {"link-partition(a=0,b=2147483648)", "b"},
             {"core-slow(core=0.5)", "core"},
             {"link-drop(node=-2)", "node"},
             {"node-degrade(from-ms=1e10)", "from-ms"},
             {"core-slow(for-ms=-1)", "for-ms"},
             {"link-delay(add-us=-1)", "add-us"},
             {"irq-drop(p=1.5)", "p"},
             {"link-drop(p=-0.1)", "p"},
             {"req-stuck(mult=0.5)", "mult"},
             {"node-degrade(mult=1e6)", "mult"},
             {"core-slow(frac=1)", "frac"},
             {"ctr-saturate(cap=1e13)", "cap"},
             {"sys-stall(cycles=-1)", "cycles"},
         }) {
        const std::string fault = bad.substr(0, bad.find('('));
        EXPECT_FALSE(fi::FaultPlan::parse(bad, plan, err)) << bad;
        EXPECT_NE(err.find("\"" + key + "\" of fault \"" + fault + "\""),
                  std::string::npos)
            << bad << ": " << err;
        EXPECT_NE(err.find(" in ["), std::string::npos) << bad << ": " << err;
    }

    // All or nothing, as for a non-number.
    ASSERT_TRUE(fi::FaultPlan::parse("ctx-loss(p=0.5)", plan, err));
    EXPECT_FALSE(fi::FaultPlan::parse(
        "irq-drop(p=0.1);node-crash(node=1,at-ms=-5)", plan, err));
    EXPECT_EQ(plan.summary(), "ctx-loss(p=0.5)");

    // Both ends of every kind of range are accepted, and link-drop and
    // link-delay keep -1 as "every node".
    for (const char *good :
         {"irq-drop(p=0)", "irq-drop(p=1)", "node-crash(node=0,at-ms=0)",
          "node-crash(node=2147483647,at-ms=1e9)", "link-drop(node=-1)",
          "link-delay(node=-1,add-us=0)", "req-stuck(mult=1)",
          "node-degrade(mult=1000)", "core-slow(core=3,frac=0.95)",
          "ctr-saturate(cap=0)", "sys-stall(cycles=0)"})
        EXPECT_TRUE(fi::FaultPlan::parse(good, plan, err))
            << good << ": " << err;
    ASSERT_TRUE(fi::FaultPlan::parse("link-drop(p=0.1)", plan, err));
    EXPECT_DOUBLE_EQ(plan.specs()[0].param("node", -1.0), -1.0);
}

TEST(FaultPlanDeath, HandBuiltNonNumberAbortsOnRead)
{
    // parse() can never produce one; a spec built by hand can.
    fi::FaultSpec fs;
    fs.kind = fi::FaultKind::ReqStuck;
    fs.params["mult"] = "inf";
    EXPECT_DOUBLE_EQ(fs.param("p", 0.25), 0.25); // absent: default
    EXPECT_DEATH(fs.param("mult", 4.0),
                 "RBV_CHECK failed.*\"mult\" of fault \"req-stuck\"");
}

TEST(FaultPlanDeath, HandBuiltOutOfRangeAbortsOnRead)
{
    fi::FaultSpec fs;
    fs.kind = fi::FaultKind::NodeCrash;
    fs.params["at-ms"] = "-5";
    EXPECT_DEATH(fs.param("at-ms", 0.0),
                 "RBV_CHECK failed.*\"at-ms\" of fault \"node-crash\"");
}

TEST(FaultPlan, LayerPredicates)
{
    fi::FaultPlan sim_only;
    sim_only.add(fi::FaultKind::IrqDrop, {{"p", 0.1}});
    EXPECT_TRUE(sim_only.hasScenarioFaults());
    EXPECT_FALSE(sim_only.hasJobFaults());

    fi::FaultPlan job_only;
    job_only.add(fi::FaultKind::JobCrash, {{"p", 1.0}});
    EXPECT_FALSE(job_only.hasScenarioFaults());
    EXPECT_TRUE(job_only.hasJobFaults());

    fi::FaultPlan cluster_only;
    cluster_only.add(fi::FaultKind::NodeCrash, {{"node", 1.0}});
    EXPECT_FALSE(cluster_only.hasScenarioFaults());
    EXPECT_FALSE(cluster_only.hasJobFaults());
    EXPECT_TRUE(cluster_only.hasClusterFaults());
    EXPECT_FALSE(sim_only.hasClusterFaults());
    EXPECT_TRUE(fi::isClusterFault(fi::FaultKind::LinkPartition));
    EXPECT_FALSE(fi::isClusterFault(fi::FaultKind::IrqDrop));
}

TEST(FaultPlan, ClusterKindsParseAndRejectTypos)
{
    fi::FaultPlan plan;
    std::string err;
    ASSERT_TRUE(fi::FaultPlan::parse(
        "node-crash(node=1,at-ms=20); "
        "node-degrade(node=3,from-ms=10,for-ms=100,mult=6); "
        "link-drop(node=3,p=0.05); "
        "link-delay(node=-1,p=0.5,add-us=200); "
        "link-partition(a=0,b=1,from-ms=5,for-ms=30)",
        plan, err))
        << err;
    ASSERT_EQ(plan.size(), 5u);
    EXPECT_EQ(plan.specs()[0].kind, fi::FaultKind::NodeCrash);
    EXPECT_DOUBLE_EQ(plan.specs()[0].param("at-ms", 0.0), 20.0);
    EXPECT_EQ(plan.specs()[4].kind, fi::FaultKind::LinkPartition);
    EXPECT_DOUBLE_EQ(plan.specs()[4].param("b", -1.0), 1.0);

    fi::FaultPlan again;
    ASSERT_TRUE(fi::FaultPlan::parse(plan.summary(), again, err))
        << err;
    EXPECT_EQ(again.summary(), plan.summary());

    EXPECT_FALSE(
        fi::FaultPlan::parse("node-crsh(node=1)", plan, err));
    EXPECT_NE(err.find("unknown fault"), std::string::npos);
    EXPECT_FALSE(
        fi::FaultPlan::parse("link-drop(prob=0.1)", plan, err));
    EXPECT_NE(err.find("no parameter"), std::string::npos);
}

TEST(UnitIntervalHash, DeterministicAndBounded)
{
    for (std::uint64_t id = 0; id < 64; ++id) {
        const double u = fi::unitIntervalHash(7, 0x51, id);
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        EXPECT_EQ(u, fi::unitIntervalHash(7, 0x51, id));
    }
    // Different salts give different lotteries.
    EXPECT_NE(fi::unitIntervalHash(7, 0x51, 3),
              fi::unitIntervalHash(7, 0x52, 3));
}

// ------------------------------------------------ dormancy guarantee

TEST(Dormancy, ZeroProbabilityPlanIsIdenticalToNoPlan)
{
    // The wiring is active (the session attaches, the sampler calls
    // into it) but every injector short-circuits before consuming
    // randomness: results must match the no-plan run field-wise.
    fi::FaultPlan plan;
    plan.add(fi::FaultKind::IrqDrop, {{"p", 0.0}})
        .add(fi::FaultKind::CtrCorrupt, {{"p", 0.0}})
        .add(fi::FaultKind::ReqStuck, {{"p", 0.0}})
        .add(fi::FaultKind::SysStall, {{"p", 0.0}})
        .add(fi::FaultKind::CtxLoss, {{"p", 0.0}});

    const ScenarioResult clean = runScenario(smallCfg());
    const ScenarioResult dormant = runScenario(withPlan(plan));
    expectSameRun(clean, dormant);
    EXPECT_TRUE(dormant.injections.empty());
    EXPECT_TRUE(clean.injections.empty());
}

// ----------------------------------------- injection-log determinism

TEST(Determinism, InjectionLogIdenticalAcrossJobsLevels)
{
    fi::FaultPlan plan;
    plan.add(fi::FaultKind::IrqDrop, {{"p", 0.3}})
        .add(fi::FaultKind::ReqStuck, {{"p", 0.3}, {"mult", 3.0}})
        .add(fi::FaultKind::SysStall,
             {{"p", 0.1}, {"cycles", 50000.0}})
        .add(fi::FaultKind::CtxLoss, {{"p", 0.2}});

    ScenarioGrid grid(withPlan(plan));
    grid.replicates(2);
    const auto jobs = grid.jobs();

    RunnerOptions serial;
    serial.jobs = 1;
    serial.progress = false;
    RunnerOptions parallel;
    parallel.jobs = 8;
    parallel.progress = false;

    const auto a = ParallelRunner(serial).run(jobs);
    const auto b = ParallelRunner(parallel).run(jobs);
    ASSERT_EQ(a.size(), b.size());
    bool any = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("job " + a[i].key);
        EXPECT_EQ(fi::formatLog(a[i].result.injections),
                  fi::formatLog(b[i].result.injections));
        any = any || !a[i].result.injections.empty();
    }
    EXPECT_TRUE(any) << "the plan injected nothing at all";

    // Replicates run different seeds, hence different logs.
    EXPECT_NE(fi::formatLog(a[0].result.injections),
              fi::formatLog(a[1].result.injections));
}

// ----------------------------- injectors and graceful degradation

TEST(Injectors, DroppedInterruptsFlagGaps)
{
    fi::FaultPlan plan;
    plan.add(fi::FaultKind::IrqDrop, {{"p", 0.5}});
    const ScenarioResult res = runScenario(withPlan(plan));

    EXPECT_GT(res.samplerStats.droppedInterrupts, 0u);
    EXPECT_GT(res.samplerStats.gapCount, 0u);
    bool flagged = false;
    for (const auto &r : res.records)
        for (const auto &p : r.timeline.periods)
            flagged = flagged || p.gapBefore;
    EXPECT_TRUE(flagged)
        << "no period carries the gapBefore degradation flag";
}

TEST(Injectors, CounterCorruptionFlagsSuspectsAndStaysFinite)
{
    fi::FaultPlan plan;
    plan.add(fi::FaultKind::CtrCorrupt, {{"p", 0.9}});
    const ScenarioResult res = runScenario(withPlan(plan));

    EXPECT_GT(res.samplerStats.suspectCount, 0u);
    // Graceful degradation: tampered reads never leak NaN/Inf or
    // negative deltas into the recorded timelines.
    for (const auto &r : res.records) {
        for (const auto &p : r.timeline.periods) {
            EXPECT_TRUE(std::isfinite(p.cycles));
            EXPECT_TRUE(std::isfinite(p.instructions));
            EXPECT_TRUE(std::isfinite(p.l2Refs));
            EXPECT_TRUE(std::isfinite(p.l2Misses));
            EXPECT_GE(p.cycles, 0.0);
            EXPECT_GE(p.instructions, 0.0);
        }
    }
    // Exact kernel attribution is ground truth: untouched by
    // counter-read corruption.
    const ScenarioResult clean = runScenario(smallCfg());
    ASSERT_EQ(res.records.size(), clean.records.size());
    for (std::size_t i = 0; i < res.records.size(); ++i) {
        EXPECT_EQ(res.records[i].totals.cycles,
                  clean.records[i].totals.cycles);
    }
}

TEST(Injectors, StuckRequestsInflateBusyCycles)
{
    fi::FaultPlan plan;
    plan.add(fi::FaultKind::ReqStuck, {{"p", 1.0}, {"mult", 4.0}});
    const ScenarioResult base = runScenario(smallCfg());
    const ScenarioResult res = runScenario(withPlan(plan));

    EXPECT_GT(res.busyCycles, base.busyCycles);
    const auto truth = fi::faultedRequests(res.injections);
    EXPECT_FALSE(truth.empty());
}

TEST(Injectors, SyscallStallsAccrueInTheKernel)
{
    fi::FaultPlan plan;
    plan.add(fi::FaultKind::SysStall,
             {{"p", 1.0}, {"cycles", 100000.0}});
    const ScenarioResult base = runScenario(smallCfg());
    const ScenarioResult res = runScenario(withPlan(plan));

    EXPECT_GT(res.kernelStats.faultStallCycles, 0.0);
    EXPECT_GT(res.wallCycles, base.wallCycles);
}

TEST(Injectors, ContextLossIsCountedNotFatal)
{
    fi::FaultPlan plan;
    plan.add(fi::FaultKind::CtxLoss, {{"p", 1.0}});
    const ScenarioResult res = runScenario(withPlan(plan));

    EXPECT_GT(res.kernelStats.lostSwitchContexts, 0u);
    // The run still completes its request quota.
    EXPECT_FALSE(res.records.empty());
}

TEST(Injectors, CoreSlowIsLoggedAndSlowsTheRun)
{
    fi::FaultPlan plan;
    plan.add(fi::FaultKind::CoreSlow,
             {{"core", 0.0},
              {"from-ms", 0.1},
              {"for-ms", 5.0},
              {"frac", 0.5}});
    const ScenarioResult base = runScenario(smallCfg());
    const ScenarioResult res = runScenario(withPlan(plan));

    bool logged = false;
    for (const auto &inj : res.injections)
        logged = logged || inj.kind == fi::FaultKind::CoreSlow;
    EXPECT_TRUE(logged);
    EXPECT_GT(res.wallCycles, base.wallCycles);
}

// ------------------------------------------- runner job faults

TEST(JobFaults, CrashedJobsFailAfterBoundedRetries)
{
    ScenarioGrid grid(smallCfg());
    grid.replicates(3);
    auto jobs = grid.jobs();

    fi::FaultPlan plan;
    plan.add(fi::FaultKind::JobCrash, {{"p", 1.0}});
    applyJobFaults(jobs, plan, 5);

    RunnerOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    opts.maxRetries = 1;
    opts.backoffMs = 0.0;
    const auto results = ParallelRunner(opts).run(jobs);

    ASSERT_EQ(results.size(), 3u);
    for (const auto &r : results) {
        EXPECT_TRUE(r.failed);
        EXPECT_NE(r.error.find("injected job crash"),
                  std::string::npos);
        EXPECT_EQ(r.attempts, 2); // 1 try + 1 retry
        EXPECT_EQ(tryResultFor(results, r.key), nullptr);
    }
    EXPECT_EQ(exitCodeFor(results), 3);
}

TEST(JobFaults, TimeoutJobsReportTimeout)
{
    ScenarioConfig cfg = smallCfg();
    cfg.requests = 12;
    ScenarioGrid grid(cfg);
    auto jobs = grid.jobs();

    fi::FaultPlan plan;
    plan.add(fi::FaultKind::JobTimeout, {{"p", 1.0}});
    applyJobFaults(jobs, plan, 5);

    RunnerOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    const auto results = ParallelRunner(opts).run(jobs);

    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].failed);
    EXPECT_NE(results[0].error.find("timeout"), std::string::npos);
    EXPECT_EQ(results[0].attempts, 1);
    EXPECT_EQ(exitCodeFor(results), 3);
}

TEST(JobFaults, SurvivingJobsStillAggregate)
{
    // A crash probability below 1 must leave the healthy jobs'
    // results intact and reachable (partial-result aggregation).
    ScenarioGrid grid(smallCfg());
    grid.replicates(4);
    auto jobs = grid.jobs();
    // Deterministically poison exactly one job instead of rolling
    // dice: pick jobs[1] by hand like a crash lottery would.
    jobs[1].body = [](const ScenarioConfig &) -> ScenarioResult {
        throw fi::InjectedFault("injected job crash (rep=1)");
    };

    RunnerOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    const auto results = ParallelRunner(opts).run(jobs);

    ASSERT_EQ(results.size(), 4u);
    EXPECT_TRUE(results[1].failed);
    for (std::size_t i : {std::size_t{0}, std::size_t{2},
                          std::size_t{3}}) {
        EXPECT_FALSE(results[i].failed);
        const ScenarioResult *r = tryResultFor(results,
                                               results[i].key);
        ASSERT_NE(r, nullptr);
        EXPECT_FALSE(r->records.empty());
    }
    EXPECT_EQ(exitCodeFor(results), 3);
}

// ------------------------------------------------ ranking evaluator

TEST(Eval, RankingScoresMatchHandComputation)
{
    // Positives at ranks 0 and 2 of 5; K = 2, top-2 holds one.
    const auto det =
        fi::evaluateRanking({true, false, true, false, false});
    EXPECT_EQ(det.scored, 5u);
    EXPECT_EQ(det.truthCount, 2u);
    EXPECT_EQ(det.hits, 1u);
    EXPECT_DOUBLE_EQ(det.precision, 0.5);
    EXPECT_DOUBLE_EQ(det.recall, 0.5);
    EXPECT_NEAR(det.rocAuc, 5.0 / 6.0, 1e-12);

    const auto perfect =
        fi::evaluateRanking({true, true, false, false});
    EXPECT_DOUBLE_EQ(perfect.precision, 1.0);
    EXPECT_DOUBLE_EQ(perfect.recall, 1.0);
    EXPECT_DOUBLE_EQ(perfect.rocAuc, 1.0);

    const auto inverted =
        fi::evaluateRanking({false, false, true, true});
    EXPECT_DOUBLE_EQ(inverted.precision, 0.0);
    EXPECT_DOUBLE_EQ(inverted.rocAuc, 0.0);
}

TEST(Eval, DegenerateRankingsAreDefined)
{
    const auto none = fi::evaluateRanking({false, false, false});
    EXPECT_EQ(none.truthCount, 0u);
    EXPECT_DOUBLE_EQ(none.precision, 0.0);
    EXPECT_DOUBLE_EQ(none.recall, 0.0);
    EXPECT_DOUBLE_EQ(none.rocAuc, 0.5);

    const auto all = fi::evaluateRanking({true, true});
    EXPECT_DOUBLE_EQ(all.precision, 1.0);
    EXPECT_DOUBLE_EQ(all.rocAuc, 0.5); // no negatives: undefined

    const auto empty = fi::evaluateRanking({});
    EXPECT_EQ(empty.scored, 0u);
    EXPECT_DOUBLE_EQ(empty.rocAuc, 0.5);
}

TEST(Eval, FaultedRequestsAreSortedAndDeduped)
{
    std::vector<fi::Injection> log;
    log.push_back({10, fi::FaultKind::ReqStuck, 7, 4.0});
    log.push_back({20, fi::FaultKind::IrqDrop, 0, 1.0});
    log.push_back({30, fi::FaultKind::ReqStuck, 3, 4.0});
    log.push_back({40, fi::FaultKind::ReqStuck, 7, 4.0});
    const auto ids = fi::faultedRequests(log);
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids[0], 3);
    EXPECT_EQ(ids[1], 7);
}
