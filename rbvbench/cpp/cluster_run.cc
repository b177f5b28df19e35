/**
 * @file
 * The cluster workload: dist::Topology driven exactly as rbv_cluster
 * drives one run (upfront Poisson arrivals, checkpoint lines, result,
 * breaker history and injection log), so the correctness gate can
 * hold its text to the shipped tool's digest. Traced runs add spans
 * around Topology::inject, EventQueue::runUntil and every node's
 * Machine -> Kernel completion upcall.
 */

#include <algorithm>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "dist/faults.hh"
#include "dist/topology.hh"
#include "fi/plan.hh"
#include "stats/rng.hh"

namespace rbvbench {

namespace {

using namespace rbv;

/** rbv_cluster's quantile (index floor(q * (n - 1)) of the sort). */
double
quantileOf(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1));
    return v[idx];
}

} // namespace

RunOutcome
runCluster(const Workload &w, std::uint64_t seed, std::size_t requests,
           bool traced)
{
    // rbv_cluster's flag defaults, plus the workload's own flags.
    dist::TopologySpec spec;
    std::string error;
    if (!dist::TopologySpec::parse(w.topology, spec, error))
        throw std::invalid_argument("bad topology: " + error);
    spec.linkLatencyTicks = sim::usToCycles(80.0);
    dist::RpcPolicy policy;
    policy.deadlineTicks = sim::usToCycles(2000.0);
    policy.maxAttempts = 3;
    policy.hedgeQuantile = 0.0;
    fi::FaultPlan plan;
    if (!fi::FaultPlan::parse(w.faults, plan, error))
        throw std::invalid_argument("bad fault plan: " + error);

    RunOutcome o;
    Tracer *tr = traced ? &o.spans : nullptr;
    LineClock sink("[ckpt] ");
    std::ostream out(&sink);
    std::unique_ptr<obs::Session> session;
    if (traced)
        session = std::make_unique<obs::Session>(obs::SessionConfig{0});

    const Clock::time_point t0 = Clock::now();
    Clock::time_point first = t0;
    std::size_t lost = 0;
    {
        Span outside(tr, SpanId::LoopOutsideRun);
        dist::Topology topo(spec, policy, dist::BreakerConfig{}, seed);
        std::vector<std::unique_ptr<TimedCoreClient>> clients;
        if (traced)
            for (int n = 0; n < topo.cluster().numNodes(); ++n) {
                clients.push_back(std::make_unique<TimedCoreClient>(
                    topo.cluster().kernel(n), *tr));
                topo.cluster().machine(n).setClient(clients.back().get());
            }
        dist::ClusterFaultSession faults(plan, seed);
        faults.attach(topo);
        topo.start();

        out << "[cluster] topology " << spec.summary() << " nodes "
            << spec.totalNodes() << " seed " << seed << "\n";
        out << "[cluster] requests " << requests << " qps " << w.qps
            << " link-us "
            << sim::cyclesToUs(static_cast<double>(spec.linkLatencyTicks))
            << " deadline-us "
            << sim::cyclesToUs(static_cast<double>(policy.deadlineTicks))
            << " attempts-per-hop " << policy.maxAttempts << " hedge "
            << policy.hedgeQuantile << "\n";

        sim::EventQueue &eq = topo.eventQueue();
        auto inject = [&] {
            Span s(tr, SpanId::DistInject);
            topo.inject();
            o.maxOutstanding = std::max(
                o.maxOutstanding, topo.injectedCount() -
                                      topo.completedCount() -
                                      topo.failedCount());
        };
        stats::Rng arrivals(seed ^ 0xa22e1a1ull);
        const double meanGapUs = 1.0e6 / w.qps;
        sim::Tick t = 0;
        sim::Tick lastArrival = 0;
        for (std::size_t i = 0; i < requests; ++i) {
            t += std::max<sim::Tick>(
                sim::usToCycles(arrivals.exponential(meanGapUs)), 1);
            lastArrival = t;
            eq.scheduleIn(t, inject);
        }

        std::size_t resolved = 0;
        topo.setResolvedCallback([&](dist::GlobalRequestId, bool) {
            Span cb(tr, SpanId::LoopCallback);
            ++resolved;
            if (w.epoch > 0 && resolved % w.epoch == 0) {
                const dist::RpcStats &s = topo.rpcStats();
                out << "[ckpt] resolved " << resolved << "/" << requests
                    << " completed " << topo.completedCount()
                    << " failed " << topo.failedCount() << " retries "
                    << s.retries << " hedges " << s.hedges
                    << " failovers " << s.failovers << " sim-ms "
                    << sim::cyclesToMs(static_cast<double>(eq.now()))
                    << "\n";
            }
            if (resolved == requests)
                eq.requestStop();
        });

        const sim::Tick perHop =
            static_cast<sim::Tick>(policy.maxAttempts) *
            (policy.deadlineTicks +
             4 * policy.backoffBaseTicks *
                 static_cast<sim::Tick>(policy.maxAttempts));
        const sim::Tick horizon =
            lastArrival +
            2 * static_cast<sim::Tick>(spec.tiers.size()) * perHop +
            sim::msToCycles(10.0);
        first = Clock::now();
        {
            Span run(tr, SpanId::SimRun);
            eq.runUntil(horizon);
        }

        o.arrivals = requests;
        o.completed = topo.completedCount();
        lost = topo.injectedCount() - o.completed - topo.failedCount() +
               (requests - topo.injectedCount());
        o.failed = topo.failedCount() + lost;

        const dist::RpcStats &s = topo.rpcStats();
        const auto &lat = topo.completedLatenciesUs();
        o.simP50Us = quantileOf(lat, 0.50);
        o.simP99Us = quantileOf(lat, 0.99);
        const double goodput = static_cast<double>(o.completed) /
                               static_cast<double>(requests);
        out << "[result] injected " << topo.injectedCount()
            << " completed " << o.completed << " failed "
            << topo.failedCount() << " lost " << lost << "\n";
        std::ostringstream fix;
        fix.setf(std::ios::fixed);
        fix.precision(4);
        fix << "[result] goodput " << goodput;
        fix.precision(1);
        fix << " p50-us " << o.simP50Us << " p99-us " << o.simP99Us
            << "\n";
        out << fix.str();
        out << "[result] rpc attempts " << s.attempts << " timeouts "
            << s.timeouts << " retries " << s.retries << " hedges "
            << s.hedges << " failovers " << s.failovers
            << " late-replies " << s.lateReplies << " no-replica "
            << s.noReplica << "\n";

        const auto breaker = topo.breakerHistory();
        out << "[breaker] transitions " << breaker.size() << "\n";
        for (const auto &e : breaker)
            out << "[breaker] " << e.tick << ' '
                << spec.tiers[static_cast<std::size_t>(e.tier)].name
                << '/' << e.replica << ' '
                << dist::breakerStateName(e.from) << "->"
                << dist::breakerStateName(e.to) << "\n";

        out << "[faults] plan " << plan.summary() << "\n";
        out << "[faults] injections " << faults.log().size() << "\n";
        out << faults.formatLog();
    }
    const Clock::time_point t1 = Clock::now();
    if (session)
        o.counters = session->mergedMetrics();

    o.text = sink.str();
    o.wallS = secondsBetween(t0, t1);
    o.setupS = secondsBetween(t0, first);
    o.runS = secondsBetween(first, t1);
    o.epochMs = epochDurationsMs(first, sink.stamps());
    return o;
}

} // namespace rbvbench
