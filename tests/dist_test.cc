/**
 * @file
 * Tests for distributed cross-machine request tracking.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <functional>
#include <optional>
#include <sstream>

#include "dist/cluster.hh"
#include "dist/faults.hh"
#include "dist/health.hh"
#include "dist/rpc.hh"
#include "dist/topology.hh"
#include "fi/plan.hh"

using namespace rbv;
using namespace rbv::dist;
using namespace rbv::os;

namespace {

/** Scripted worker: recv, execute, forward to a fixed channel. */
struct HopLogic : ThreadLogic
{
    ChannelId in;
    ChannelId out;
    double ins;
    double cpi;

    HopLogic(ChannelId in, ChannelId out, double ins, double cpi = 1.0)
        : in(in), out(out), ins(ins), cpi(cpi)
    {
    }

    bool have_msg = false;

    Action
    next() override
    {
        if (!have_msg) {
            ActSyscall a;
            a.id = Sys::recv;
            a.args.behavior = SysBehavior::ChannelRecv;
            a.args.channel = in;
            return a;
        }
        if (!executed) {
            executed = true;
            sim::WorkParams p;
            p.baseCpi = cpi;
            return ActExec{p, ins};
        }
        have_msg = false;
        executed = false;
        ActSyscall a;
        a.id = Sys::send;
        a.args.behavior = SysBehavior::ChannelSend;
        a.args.channel = out;
        return a;
    }

    void
    onMessage(const Message &) override
    {
        have_msg = true;
    }

  private:
    bool executed = false;
};

NodeConfig
nodeConfig(const std::string &name, int cores = 1)
{
    NodeConfig cfg;
    cfg.name = name;
    cfg.machine.numCores = cores;
    cfg.machine.coresPerL2Domain = cores >= 2 ? 2 : 1;
    return cfg;
}

/** A 2-node rig: front -> (link) -> back -> (link) -> reply sink. */
struct TwoNodeRig
{
    sim::EventQueue eq;
    Cluster cluster;
    NodeId front, back;
    ChannelId front_in, back_in, to_back, reply_on_back;
    std::vector<GlobalRequestId> completed;

    explicit TwoNodeRig(sim::Tick latency = sim::usToCycles(100.0))
        : cluster(eq)
    {
        front = cluster.addNode(nodeConfig("front"));
        back = cluster.addNode(nodeConfig("back"));

        auto &fk = cluster.kernel(front);
        auto &bk = cluster.kernel(back);

        front_in = fk.createChannel();
        back_in = bk.createChannel();

        // front -> back network link.
        to_back = cluster.connect(front, {back, back_in}, latency);

        // back -> cluster reply (a sink channel on the back node that
        // completes the global request).
        reply_on_back = bk.createChannel();
        bk.setChannelSink(reply_on_back, [this,
                                          &bk](const Message &m) {
            const GlobalRequestId gid =
                cluster.globalIdOf(back, m.request);
            cluster.completeRequest(gid);
            completed.push_back(gid);
        });

        fk.createThread(fk.createProcess("front"),
                        std::make_unique<HopLogic>(front_in, to_back,
                                                   50000.0));
        bk.createThread(bk.createProcess("back"),
                        std::make_unique<HopLogic>(
                            back_in, reply_on_back, 100000.0, 2.0));
        cluster.start();
    }

    GlobalRequestId
    inject()
    {
        const GlobalRequestId gid =
            cluster.registerRequest("dist.req", nullptr);
        cluster.post(front, front_in, Message{}, gid);
        return gid;
    }
};

} // namespace

TEST(Cluster, RequestCrossesMachinesAndCompletes)
{
    TwoNodeRig rig;
    const auto gid = rig.inject();
    rig.eq.runUntil(sim::msToCycles(50.0));

    ASSERT_EQ(rig.completed.size(), 1u);
    EXPECT_EQ(rig.completed[0], gid);
    const auto &info = rig.cluster.request(gid);
    EXPECT_TRUE(info.done);
    EXPECT_EQ(info.hops, 1u); // front -> back
}

TEST(Cluster, PerNodeAccountingSplitsWork)
{
    TwoNodeRig rig;
    const auto gid = rig.inject();
    rig.eq.runUntil(sim::msToCycles(50.0));

    const auto &info = rig.cluster.request(gid);
    ASSERT_EQ(info.perNode.size(), 2u);
    // Front executed ~50K instructions, back ~100K (plus kernel).
    EXPECT_GT(info.perNode[0].instructions, 50000.0);
    EXPECT_LT(info.perNode[0].instructions, 90000.0);
    EXPECT_GT(info.perNode[1].instructions, 100000.0);
    EXPECT_LT(info.perNode[1].instructions, 150000.0);
    // Summed totals cover both.
    EXPECT_NEAR(info.totals().instructions,
                info.perNode[0].instructions +
                    info.perNode[1].instructions,
                1e-6);
}

TEST(Cluster, NetworkLatencyDelaysCompletion)
{
    TwoNodeRig fast(sim::usToCycles(10.0));
    TwoNodeRig slow(sim::usToCycles(5000.0));
    const auto g1 = fast.inject();
    const auto g2 = slow.inject();
    fast.eq.runUntil(sim::msToCycles(100.0));
    slow.eq.runUntil(sim::msToCycles(100.0));

    const auto lat_fast = fast.cluster.request(g1).completed -
                          fast.cluster.request(g1).injected;
    const auto lat_slow = slow.cluster.request(g2).completed -
                          slow.cluster.request(g2).injected;
    EXPECT_GT(lat_slow, lat_fast + sim::usToCycles(4000.0));
}

TEST(Cluster, GlobalLocalIdTranslationRoundTrips)
{
    TwoNodeRig rig;
    const auto gid = rig.inject();
    rig.eq.runUntil(sim::msToCycles(50.0));

    const os::RequestId lf = rig.cluster.localIdOf(rig.front, gid);
    const os::RequestId lb = rig.cluster.localIdOf(rig.back, gid);
    EXPECT_EQ(rig.cluster.globalIdOf(rig.front, lf), gid);
    EXPECT_EQ(rig.cluster.globalIdOf(rig.back, lb), gid);
    // Unknown local ids map to the invalid global id.
    EXPECT_EQ(rig.cluster.globalIdOf(rig.front, 424242),
              InvalidGlobalRequestId);
}

TEST(Cluster, ManyRequestsAllTracked)
{
    TwoNodeRig rig;
    std::vector<GlobalRequestId> gids;
    for (int i = 0; i < 20; ++i)
        gids.push_back(rig.inject());
    rig.eq.runUntil(sim::msToCycles(500.0));

    EXPECT_EQ(rig.cluster.completedRequests(), 20u);
    for (const auto gid : gids) {
        const auto &info = rig.cluster.request(gid);
        EXPECT_TRUE(info.done);
        EXPECT_GT(info.totals().instructions, 150000.0);
    }
}

TEST(Cluster, MergedTimelineSerializesCrossMachineExecution)
{
    TwoNodeRig rig;

    // Attach a sampler on each node.
    core::SamplerConfig sc;
    sc.periodUs = 5.0;
    core::InterruptSampler sf(rig.cluster.kernel(rig.front), sc);
    core::InterruptSampler sb(rig.cluster.kernel(rig.back), sc);
    sf.start();
    sb.start();

    const auto gid = rig.inject();
    rig.eq.runUntil(sim::msToCycles(50.0));

    const auto merged =
        rig.cluster.mergedTimeline(gid, {&sf, &sb});
    ASSERT_GT(merged.periods.size(), 5u);
    // Wall-clock ordered.
    for (std::size_t i = 1; i < merged.periods.size(); ++i) {
        EXPECT_GE(merged.periods[i].wallStart,
                  merged.periods[i - 1].wallStart);
    }
    // The merged timeline covers roughly the whole request.
    const auto &info = rig.cluster.request(gid);
    EXPECT_NEAR(merged.totalInstructions(),
                info.totals().instructions,
                info.totals().instructions * 0.4);
    // The front's low-CPI work precedes the back's CPI-2 work:
    // compare aggregate CPI of the first vs second half (individual
    // boundary periods carry kernel-cost noise).
    const std::size_t half = merged.periods.size() / 2;
    auto agg = [&](std::size_t lo, std::size_t hi) {
        double cyc = 0.0, ins = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
            cyc += merged.periods[i].cycles;
            ins += merged.periods[i].instructions;
        }
        return cyc / std::max(ins, 1.0);
    };
    EXPECT_LT(agg(0, half), agg(half, merged.periods.size()));
}

TEST(Cluster, NodesShareOneClock)
{
    TwoNodeRig rig;
    rig.inject();
    rig.eq.runUntil(sim::msToCycles(10.0));
    // Both kernels report the same simulated time.
    EXPECT_EQ(rig.cluster.kernel(rig.front).now(),
              rig.cluster.kernel(rig.back).now());
}

TEST(ClusterDeath, UnknownGlobalRequestIdAborts)
{
    TwoNodeRig rig;
    const auto gid = rig.inject();
    rig.eq.runUntil(sim::msToCycles(50.0));
    // Out-of-range ids abort instead of returning a dangling
    // reference (the old vector-reallocation hazard).
    EXPECT_DEATH((void)rig.cluster.request(424242),
                 "RBV_CHECK failed");
    EXPECT_DEATH((void)rig.cluster.request(-1), "RBV_CHECK failed");
    EXPECT_DEATH((void)rig.cluster.localIdOf(rig.front, 424242),
                 "RBV_CHECK failed");
    EXPECT_DEATH((void)rig.cluster.localIdOf(99, gid),
                 "RBV_CHECK failed");
}

// ------------------------------------------------- circuit breaker

TEST(Breaker, StateMachineMatchesGoldenTransitionLog)
{
    BreakerConfig cfg;
    cfg.failThreshold = 2;
    cfg.cooldownTicks = 100;
    ReplicaHealth h(cfg);

    EXPECT_TRUE(h.admit(0));
    h.onFailure(10);
    EXPECT_TRUE(h.admit(11)); // one failure: still closed
    h.onFailure(20);          // threshold reached -> open
    EXPECT_EQ(h.state(), BreakerState::Open);
    EXPECT_FALSE(h.admit(30));  // cooling down
    EXPECT_TRUE(h.admit(125));  // cooldown elapsed -> half-open probe
    EXPECT_EQ(h.state(), BreakerState::HalfOpen);
    EXPECT_FALSE(h.admit(126)); // probe outstanding
    h.onFailure(130);           // probe failed -> open again
    EXPECT_FALSE(h.admit(200)); // cooldown restarted at 130
    EXPECT_TRUE(h.admit(240));  // second probe
    h.onSuccess(250);           // probe succeeded -> closed
    EXPECT_EQ(h.state(), BreakerState::Closed);
    EXPECT_TRUE(h.admit(260));
    EXPECT_EQ(h.consecutiveFailures(), 0);

    EXPECT_EQ(formatTransitions(h.transitions()),
              "20 closed->open\n"
              "125 open->half-open\n"
              "130 half-open->open\n"
              "240 open->half-open\n"
              "250 half-open->closed\n");
}

// ------------------------------------------------------- RPC policy

TEST(RpcPolicy, BackoffIsDeterministicExponentialAndBounded)
{
    const RpcPolicy p;
    for (int attempt = 1; attempt <= 3; ++attempt) {
        const sim::Tick d = p.backoffTicks(7, 42, attempt);
        EXPECT_EQ(d, p.backoffTicks(7, 42, attempt)); // stateless
        const double nominal =
            static_cast<double>(p.backoffBaseTicks) *
            std::pow(p.backoffFactor, attempt - 1);
        EXPECT_GE(static_cast<double>(d),
                  nominal * (1.0 - p.jitterFrac / 2.0) - 1.0);
        EXPECT_LE(static_cast<double>(d),
                  nominal * (1.0 + p.jitterFrac / 2.0) + 1.0);
    }
    // The jitter lottery keys on seed and request id.
    EXPECT_NE(p.backoffTicks(7, 42, 1), p.backoffTicks(8, 42, 1));
    EXPECT_NE(p.backoffTicks(7, 42, 1), p.backoffTicks(7, 43, 1));
}

// ---------------------------------------------------- tier topology

TEST(TopologySpec, ParsesSummarizesAndRejectsTypos)
{
    TopologySpec s;
    std::string err;
    ASSERT_TRUE(
        TopologySpec::parse("lb:1:20,app:2:80,db:2:140", s, err))
        << err;
    ASSERT_EQ(s.tiers.size(), 3u);
    EXPECT_EQ(s.tiers[0].name, "lb");
    EXPECT_EQ(s.tiers[1].replicas, 2);
    EXPECT_DOUBLE_EQ(s.tiers[2].serviceKiloIns, 140.0);
    EXPECT_EQ(s.totalNodes(), 5);
    EXPECT_EQ(s.summary(), "lb:1:20,app:2:80,db:2:140");

    // A typo must never silently build a different cluster.
    EXPECT_FALSE(TopologySpec::parse("", s, err));
    EXPECT_FALSE(TopologySpec::parse("lb", s, err));
    EXPECT_FALSE(TopologySpec::parse("lb:0", s, err));
    EXPECT_FALSE(TopologySpec::parse("lb:1:x", s, err));
    EXPECT_FALSE(TopologySpec::parse("lb:1,lb:1", s, err));
    EXPECT_FALSE(TopologySpec::parse("lb:1:20:9", s, err));
    EXPECT_FALSE(TopologySpec::parse("lb:1,,db:1", s, err));

    // Service sizes must be finite and in (0, 1e6]; inf and 1e300 once
    // aborted the simulator on a tick overflow, nan on a debug check.
    for (const char *kilo : {"inf", "nan", "1e300", "-0", "0", "1e6x",
                             "1000000.5"}) {
        EXPECT_FALSE(TopologySpec::parse(
            std::string("lb:1:20,app:2:") + kilo, s, err))
            << kilo;
        EXPECT_NE(err.find("tier \"app\""), std::string::npos) << err;
    }
    ASSERT_TRUE(TopologySpec::parse("lb:1:1e6,app:2:0.5", s, err)) << err;
    EXPECT_DOUBLE_EQ(s.tiers[0].serviceKiloIns, 1e6);
}

namespace {

/** Deterministic artifacts of one topology run, for comparisons. */
struct RunArtifacts
{
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::uint64_t attempts = 0;
    std::uint64_t retries = 0;
    std::uint64_t failovers = 0;
    std::string injectionLog;
    std::string breakerLog;
};

/**
 * Build a topology (optionally with a fault plan), drive @p requests
 * evenly spaced arrivals through it, and harvest the deterministic
 * artifacts. The run must always resolve every request (the
 * never-hang contract); @p inspect sees the finished topology.
 */
RunArtifacts
runTopology(const char *topoText, const char *faults,
            std::size_t requests, std::uint64_t seed,
            const std::function<void(Topology &)> &inspect = {})
{
    TopologySpec spec;
    std::string err;
    EXPECT_TRUE(TopologySpec::parse(topoText, spec, err)) << err;

    Topology topo(spec, RpcPolicy{}, BreakerConfig{}, seed);
    std::optional<ClusterFaultSession> session;
    fi::FaultPlan plan;
    if (faults != nullptr && faults[0] != '\0') {
        EXPECT_TRUE(fi::FaultPlan::parse(faults, plan, err)) << err;
        session.emplace(plan, seed);
        session->attach(topo);
    }
    topo.start();

    sim::EventQueue &eq = topo.eventQueue();
    for (std::size_t i = 0; i < requests; ++i)
        eq.scheduleIn(sim::usToCycles(200.0) * (i + 1),
                      [&topo] { topo.inject(); });
    std::size_t resolved = 0;
    topo.setResolvedCallback([&](GlobalRequestId, bool) {
        if (++resolved == requests)
            eq.requestStop();
    });
    eq.runUntil(sim::msToCycles(5000.0));

    EXPECT_TRUE(topo.allResolved()); // degraded maybe, hung never

    RunArtifacts a;
    a.completed = topo.completedCount();
    a.failed = topo.failedCount();
    a.attempts = topo.rpcStats().attempts;
    a.retries = topo.rpcStats().retries;
    a.failovers = topo.rpcStats().failovers;
    if (session)
        a.injectionLog = session->formatLog();
    std::ostringstream b;
    for (const auto &e : topo.breakerHistory())
        b << e.tick << ' ' << e.tier << '/' << e.replica << ' '
          << breakerStateName(e.from) << "->"
          << breakerStateName(e.to) << '\n';
    a.breakerLog = b.str();
    if (inspect)
        inspect(topo);
    return a;
}

} // namespace

TEST(Topology, CleanRunCompletesEveryRequestWithoutRetries)
{
    const auto a = runTopology("lb:1:20,app:2:80", "", 20, 1);
    EXPECT_EQ(a.completed, 20u);
    EXPECT_EQ(a.failed, 0u);
    EXPECT_EQ(a.attempts, 40u); // one per hop, no adversity
    EXPECT_EQ(a.retries, 0u);
    EXPECT_TRUE(a.breakerLog.empty());
}

TEST(Topology, NodeCrashFailsOverWithoutLosingRequests)
{
    runTopology(
        "lb:1:20,app:2:80", "node-crash(node=1,at-ms=2)", 40, 1,
        [](Topology &topo) {
            // The PR 4 contract: a dead replica degrades requests,
            // never loses them.
            EXPECT_EQ(topo.completedCount(), 40u);
            EXPECT_EQ(topo.failedCount(), 0u);
            EXPECT_GT(topo.rpcStats().failovers, 0u);

            Cluster &cl = topo.cluster();
            double onSurvivor = 0.0;
            for (GlobalRequestId g = 0; g < 40; ++g) {
                const auto &info = cl.request(g);
                EXPECT_TRUE(info.done);
                // Per-node counters stay conserved under failover:
                // the frozen totals equal the per-node fold.
                double sum = 0.0;
                for (const auto &c : info.perNode)
                    sum += c.instructions;
                EXPECT_NEAR(info.totals().instructions, sum, 1e-6);
                onSurvivor += info.perNode[2].instructions; // app/1
            }
            EXPECT_GT(onSurvivor, 0.0);
        });
}

TEST(Topology, ArtifactsAreByteIdenticalAcrossReruns)
{
    const char *plan =
        "node-crash(node=1,at-ms=2); link-drop(node=0,p=0.1)";
    const auto a = runTopology("lb:1:20,app:2:80", plan, 30, 7);
    const auto b = runTopology("lb:1:20,app:2:80", plan, 30, 7);
    EXPECT_FALSE(a.injectionLog.empty());
    EXPECT_EQ(a.injectionLog, b.injectionLog);
    EXPECT_EQ(a.breakerLog, b.breakerLog);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.failovers, b.failovers);

    // A different seed reshuffles the lotteries.
    const auto c = runTopology("lb:1:20,app:2:80", plan, 30, 8);
    EXPECT_NE(a.injectionLog, c.injectionLog);
}

TEST(Topology, FullPartitionDegradesButNeverHangsOrLoses)
{
    runTopology(
        "lb:1:20,app:1:80",
        "link-partition(a=0,b=1,from-ms=0,for-ms=4000)", 10, 1,
        [](Topology &topo) {
            // No path to the single app replica: every request
            // exhausts its retries and fails -- but each one is
            // resolved and its accounting frozen, never leaked.
            EXPECT_EQ(topo.completedCount(), 0u);
            EXPECT_EQ(topo.failedCount(), 10u);
            EXPECT_TRUE(topo.allResolved());
            for (GlobalRequestId g = 0; g < 10; ++g)
                EXPECT_TRUE(topo.cluster().request(g).done);
        });
}
