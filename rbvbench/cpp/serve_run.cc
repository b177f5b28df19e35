/**
 * @file
 * Serve workloads: the untraced run goes through exp::runServe
 * itself; the traced run is a copy of its loop (for the benchmark's
 * flags: no fault plan, no diagnosis, every completion on the model
 * path) with a span around each call into a layer. The correctness
 * gate holds the copy to the shipped loop byte for byte.
 */

#include <algorithm>
#include <iomanip>
#include <memory>
#include <ostream>
#include <sstream>

#include "bench.hh"
#include "core/model/streaming.hh"
#include "core/timeline.hh"
#include "exp/serve.hh"
#include "stats/online.hh"
#include "wl/server.hh"

namespace rbvbench {

namespace {

using namespace rbv;

/**
 * Marks the host time of the first simulated event: a no-op event at
 * tick 0, armed when the sampler exists, so it fires as the event
 * loop starts. It changes no simulated result; the correctness gate
 * compares this run's stdout with the shipped tool's.
 */
struct FirstEvent
{
    Clock::time_point at{};
    bool seen = false;

    void
    arm(sim::EventQueue &eq)
    {
        eq.schedule(eq.now(), [this] {
            seen = true;
            at = Clock::now();
        });
    }
};

/** The flags rbv_serve gets for this workload (its defaults else). */
exp::ServeConfig
serveConfig(const Workload &w, std::uint64_t seed, std::size_t requests)
{
    exp::ServeConfig cfg;
    cfg.appName = w.app;
    cfg.base.seed = seed;
    cfg.arrival.qps = w.qps;
    cfg.arrival.mode = wl::ArrivalMode::Poisson;
    cfg.targetRequests = requests;
    cfg.checkpointEvery = w.epoch;
    return cfg;
}

std::string
fmt(double v, int prec = 3)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(prec) << v;
    return os.str();
}

/** The checkpoint line exactly as exp::runServe writes it. */
void
writeCheckpointLine(std::ostream &out, const exp::ServeCheckpoint &cp)
{
    const double acc =
        cp.idAttempts > 0 ? static_cast<double>(cp.idCorrect) /
                                static_cast<double>(cp.idAttempts)
                          : 0.0;
    out << "[serve] epoch " << cp.epoch << " t_ms " << fmt(cp.simMs)
        << " arrivals " << cp.arrivals << " completed "
        << cp.completed << " inflight " << cp.outstanding << " shed "
        << cp.shed << " p50_us " << fmt(cp.p50LatencyUs, 1)
        << " p99_us " << fmt(cp.p99LatencyUs, 1) << " cpi "
        << fmt(cp.cpiMean) << " cov " << fmt(cp.cpiCov) << " id_acc "
        << fmt(acc) << " bank " << cp.bankSize << " reclusters "
        << cp.reclusters << " flagged " << cp.flagged << " stalled "
        << cp.stalled << " slots " << cp.requestSlots << "\n";
}

const char *const EpochPrefix = "[serve] epoch ";

void
finish(RunOutcome &o, const exp::ServeResult &res, const LineClock &sink,
       Clock::time_point first, Clock::time_point t0,
       Clock::time_point t1)
{
    o.text = sink.str();
    o.wallS = secondsBetween(t0, t1);
    o.setupS = secondsBetween(t0, first);
    o.runS = secondsBetween(first, t1);
    o.epochMs = epochDurationsMs(first, sink.stamps());
    o.arrivals = res.arrivals;
    o.completed = res.completed;
    o.failed = res.shed + res.stalled;
    o.simP50Us = res.p50LatencyUs;
    o.simP99Us = res.p99LatencyUs;
    o.idAcc = res.idAccuracy();
    o.reclusters = res.reclusters;
    o.flagged = res.flagged;
}

} // namespace

RunOutcome
runServeUntraced(const Workload &w, std::uint64_t seed, std::size_t requests)
{
    exp::ServeConfig cfg = serveConfig(w, seed, requests);
    FirstEvent first;
    cfg.base.onSamplerReady = [&first](os::Kernel &k, core::Sampler &) {
        first.arm(k.eventQueue());
    };
    LineClock sink(EpochPrefix);
    std::ostream out(&sink);

    RunOutcome o;
    const Clock::time_point t0 = Clock::now();
    const exp::ServeResult res = exp::runServe(cfg, out);
    const Clock::time_point t1 = Clock::now();
    finish(o, res, sink, first.seen ? first.at : t1, t0, t1);
    return o;
}

RunOutcome
runServeTraced(const Workload &w, std::uint64_t seed, std::size_t requests)
{
    const exp::ServeConfig cfg = serveConfig(w, seed, requests);
    RunOutcome o;
    Tracer &tr = o.spans;
    LineClock sink(EpochPrefix);
    std::ostream out(&sink);
    Clock::time_point first{};
    exp::ServeResult result;

    obs::Session session(obs::SessionConfig{0});
    const Clock::time_point t0 = Clock::now();
    {
        Span outside(&tr, SpanId::LoopOutsideRun);

        auto gen = exp::makeServeGenerator(cfg.appName);
        const double period_us = cfg.base.samplingPeriodUs > 0.0
                                     ? cfg.base.samplingPeriodUs
                                     : gen->defaultSamplingPeriodUs();

        sim::EventQueue eq;
        sim::MachineConfig mc;
        mc.numCores = cfg.base.numCores;
        mc.coresPerL2Domain = std::min(2, cfg.base.numCores);
        sim::Machine machine(mc, eq);
        os::Kernel kernel(machine, os::KernelConfig{}, cfg.base.policy);
        TimedCoreClient client(kernel, tr);
        machine.setClient(&client);

        wl::ServerApp app(kernel, gen->tiers());
        wl::OpenLoopDriver::Config dc;
        dc.arrival = cfg.arrival;
        dc.targetRequests = cfg.targetRequests;
        dc.maxOutstanding = cfg.maxOutstanding;
        wl::OpenLoopDriver driver(kernel, app, *gen,
                                  stats::Rng(cfg.base.seed), dc);

        std::unique_ptr<core::Sampler> sampler =
            exp::makeSampler(cfg.base, kernel, period_us);

        stats::Rng modelRng(cfg.base.seed + 7777);
        core::StreamingSignatureBank bank(cfg.binIns, cfg.bankCapacity,
                                          modelRng.split());
        core::StreamingClusterModel::Config cc;
        cc.window = cfg.window;
        cc.sample = cfg.sample;
        cc.k = cfg.k;
        cc.reclusterEvery = cfg.reclusterEvery;
        core::StreamingClusterModel cluster(cc, modelRng.split());
        core::RollingAnomalyScorer::Config rc;
        rc.window = cfg.scoreWindow;
        rc.quantile = cfg.scoreQuantile;
        core::RollingAnomalyScorer scorer(rc);

        stats::SlidingQuantile latencies(8192);
        stats::EwmaMeanVar cpi(0.02);

        auto checkpoint = [&](std::size_t completed_now) {
            RBV_COUNT(ServeCheckpoints, 1);
            exp::ServeCheckpoint cp;
            cp.epoch = result.checkpoints.size() + 1;
            cp.simMs = sim::cyclesToMs(static_cast<double>(eq.now()));
            cp.arrivals = driver.arrivals();
            cp.completed = completed_now;
            cp.outstanding = driver.outstanding();
            cp.shed = driver.shed();
            cp.p50LatencyUs = latencies.median();
            cp.p99LatencyUs = latencies.quantile(0.99);
            cp.cpiMean = cpi.mean();
            cp.cpiCov = cpi.cov();
            cp.idAttempts = result.idAttempts;
            cp.idCorrect = result.idCorrect;
            cp.idUnknown = result.idUnknown;
            cp.bankSize = bank.bank().size();
            cp.reclusters = cluster.reclusterCount();
            cp.flagged = scorer.flaggedCount();
            cp.stalled = result.stalled;
            cp.requestSlots = kernel.numRequests();
            result.checkpoints.push_back(cp);
            writeCheckpointLine(out, cp);
        };

        driver.setCompletionCallback([&](os::RequestId id,
                                         const wl::RequestSpec &spec) {
            Span cb(&tr, SpanId::LoopCallback);
            o.maxOutstanding =
                std::max(o.maxOutstanding, driver.outstanding());
            core::Timeline tl;
            if (sampler) {
                Span s(&tr, SpanId::SamplingTakeTimeline);
                tl = sampler->takeTimeline(id);
            }
            const os::RequestInfo &info = kernel.request(id);

            latencies.add(sim::cyclesToUs(
                static_cast<double>(info.completed - info.injected)));
            cpi.add(info.cpi());

            const double specified = spec.totalInstructions();
            if (specified > 0.0 &&
                info.totals.instructions > cfg.stuckFactor * specified) {
                ++result.stalled;
                RBV_COUNT(ServeStalledRequests, 1);
            }

            const std::size_t n = driver.completed();
            core::MetricSeries series;
            {
                Span s(&tr, SpanId::ModelBin);
                series = core::binByInstructions(
                    tl, cfg.binIns, core::Metric::L2RefsPerIns);
            }
            if (series.size() >= 2) {
                if (bank.offered() >= bank.capacity()) {
                    core::MetricSeries prefix;
                    {
                        Span s(&tr, SpanId::ModelBin);
                        prefix = core::binPrefixByInstructions(
                            tl, cfg.binIns, 0.5 * specified,
                            core::Metric::L2RefsPerIns);
                    }
                    if (!prefix.empty()) {
                        Span s(&tr, SpanId::ModelIdentify);
                        const auto ident =
                            bank.identify(prefix, cfg.idFloor);
                        if (ident.index == core::SignatureBank::npos) {
                            ++result.idUnknown;
                        } else {
                            ++result.idAttempts;
                            if (bank.bank().entry(ident.index).classId ==
                                spec.classId)
                                ++result.idCorrect;
                        }
                    }
                }
                {
                    Span s(&tr, SpanId::ModelOffer);
                    bank.offer(series, info.totals.cycles, spec.classId);
                }
                {
                    Span s(&tr, SpanId::ModelObserve);
                    const std::size_t before = cluster.reclusterCount();
                    cluster.observe(series);
                    if (cluster.reclusterCount() != before)
                        s.relabel(SpanId::ModelRecluster);
                }
                if (!cluster.medoids().empty()) {
                    double score = 0.0;
                    {
                        Span s(&tr, SpanId::ModelScore);
                        score = cluster.scoreOf(series);
                    }
                    Span s(&tr, SpanId::ModelAnomalyObserve);
                    scorer.observe(score);
                }
            }

            if (cfg.checkpointEvery > 0 && n % cfg.checkpointEvery == 0)
                checkpoint(n);
        });

        kernel.start();
        if (sampler)
            sampler->start();
        driver.start();
        first = Clock::now();
        {
            Span run(&tr, SpanId::SimRun);
            eq.runUntil(cfg.base.maxTicks);
        }

        result.arrivals = driver.arrivals();
        result.injected = driver.injected();
        result.completed = driver.completed();
        result.shed = driver.shed();
        result.flagged = scorer.flaggedCount();
        result.reclusters = cluster.reclusterCount();
        result.bankSize = bank.bank().size();
        result.p50LatencyUs = latencies.median();
        result.p99LatencyUs = latencies.quantile(0.99);
        result.wallCycles = eq.now();
        result.requestSlots = kernel.numRequests();

        out << "[serve] done app " << gen->appName() << " arrivals "
            << result.arrivals << " completed " << result.completed
            << " shed " << result.shed << " t_ms "
            << fmt(sim::cyclesToMs(static_cast<double>(result.wallCycles)))
            << " p50_us " << fmt(result.p50LatencyUs, 1) << " p99_us "
            << fmt(result.p99LatencyUs, 1) << " id_acc "
            << fmt(result.idAccuracy()) << " bank " << result.bankSize
            << " reclusters " << result.reclusters << " flagged "
            << result.flagged << " stalled " << result.stalled
            << " slots " << result.requestSlots << "\n";
    }
    const Clock::time_point t1 = Clock::now();
    o.counters = session.mergedMetrics();
    finish(o, result, sink, first, t0, t1);
    return o;
}

} // namespace rbvbench
