/**
 * @file
 * Shared pieces of rbvbench: the workload table, the
 * span tracer that times calls into each layer, and the line clock
 * that time-stamps the checkpoint lines a run writes.
 *
 * Spans are timed only from the benchmark's own files, around public
 * calls into the program; nothing in src/ is instrumented for it.
 */

#ifndef RBVBENCH_BENCH_HH
#define RBVBENCH_BENCH_HH

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <streambuf>
#include <string>
#include <vector>

#include "obs/obs.hh"
#include "sim/machine.hh"

namespace rbvbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One benchmark workload: the shipped tool and its fixed flags. */
struct Workload
{
    std::string name;
    bool cluster = false;      ///< dist::Topology instead of runServe.
    std::string app;           ///< Serve app (serve workloads).
    double qps = 0.0;          ///< Poisson arrival rate (simulated).
    std::size_t repRequests = 0;  ///< Arrivals per measured run.
    std::size_t gateRequests = 0; ///< Arrivals per correctness-gate run.
    std::size_t epoch = 0;     ///< Completions per checkpoint line.
    std::string topology;      ///< Cluster tier chain.
    std::string faults;        ///< Cluster fault plan.
};

/** The workload table (README.md says why each one is here). */
const std::vector<Workload> &workloads();

/** Layer spans. Each one is a self time: children are subtracted. */
enum class SpanId : std::uint8_t
{
    SimRun,              ///< EventQueue::runUntil.
    OsWorkComplete,      ///< Machine -> Kernel completion upcall.
    SamplingTakeTimeline,
    ModelBin,
    ModelIdentify,
    ModelOffer,
    ModelObserve,        ///< observe() calls that did not recluster.
    ModelRecluster,      ///< observe() calls that reclustered.
    ModelScore,
    ModelAnomalyObserve,
    DistInject,
    LoopCallback,      ///< The loop's own completion callback.
    LoopOutsideRun,    ///< Set-up and summary around runUntil.
    Count_,
};

constexpr std::size_t NumSpans = static_cast<std::size_t>(SpanId::Count_);

/** Per-layer metric name of a span (e.g. "sim.run_self_frac"). */
const char *spanMetric(SpanId id);

/**
 * Nested span timer. A span's self time is its duration minus the
 * time covered by spans opened inside it, so the self times of one
 * traced run sum exactly (in integer nanoseconds) to the duration of
 * its outermost span.
 */
class Tracer
{
  public:
    void
    begin()
    {
        stack.push_back({Clock::now(), 0});
    }

    void
    end(SpanId id)
    {
        const Frame f = stack.back();
        stack.pop_back();
        const std::int64_t ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - f.start)
                .count();
        selfNs[static_cast<std::size_t>(id)] += ns - f.childNs;
        if (!stack.empty())
            stack.back().childNs += ns;
    }

    std::array<std::int64_t, NumSpans> selfNs{};

  private:
    struct Frame
    {
        Clock::time_point start;
        std::int64_t childNs;
    };
    std::vector<Frame> stack;
};

/** RAII span; a null tracer makes it a no-op (the untraced run). */
class Span
{
  public:
    Span(Tracer *t, SpanId id) : tracer(t), spanId(id)
    {
        if (tracer)
            tracer->begin();
    }

    ~Span()
    {
        if (tracer)
            tracer->end(spanId);
    }

    /** Book the span under another id when it closes. */
    void relabel(SpanId id) { spanId = id; }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer;
    SpanId spanId;
};

/** Forwards Machine -> Kernel completion upcalls inside a span. */
class TimedCoreClient : public rbv::sim::CoreClient
{
  public:
    TimedCoreClient(rbv::sim::CoreClient &inner, Tracer &tracer)
        : inner(inner), tracer(tracer)
    {
    }

    void
    onWorkComplete(rbv::sim::CoreId core) override
    {
        Span s(&tracer, SpanId::OsWorkComplete);
        inner.onWorkComplete(core);
    }

  private:
    rbv::sim::CoreClient &inner;
    Tracer &tracer;
};

/**
 * Output sink that keeps the text a run writes and time-stamps every
 * line that starts with a given prefix (the checkpoint lines).
 */
class LineClock : public std::streambuf
{
  public:
    explicit LineClock(std::string prefix) : prefix(std::move(prefix)) {}

    const std::string &str() const { return text; }
    const std::vector<Clock::time_point> &stamps() const { return times; }

  protected:
    int_type
    overflow(int_type c) override
    {
        if (traits_type::eq_int_type(c, traits_type::eof()))
            return traits_type::not_eof(c);
        text.push_back(traits_type::to_char_type(c));
        if (text.back() == '\n') {
            if (text.compare(lineStart, prefix.size(), prefix) == 0)
                times.push_back(Clock::now());
            lineStart = text.size();
        }
        return c;
    }

  private:
    std::string prefix;
    std::string text;
    std::size_t lineStart = 0;
    std::vector<Clock::time_point> times;
};

/** Host timing and simulated outcome of one run of a workload. */
struct RunOutcome
{
    std::string text;          ///< Deterministic stdout of the run.
    double setupS = 0.0;       ///< Run start to first simulated event.
    double runS = 0.0;         ///< First simulated event to run end.
    double wallS = 0.0;        ///< Whole run.
    std::vector<double> epochMs; ///< Host ms per checkpoint epoch.

    std::size_t arrivals = 0;  ///< Attempted requests.
    std::size_t completed = 0;
    std::size_t failed = 0;    ///< Shed + stalled, or failed + lost.
    double simP50Us = 0.0;
    double simP99Us = 0.0;
    double idAcc = 0.0;
    std::size_t reclusters = 0;
    std::size_t flagged = 0;
    std::size_t maxOutstanding = 0; ///< At each completion / arrival.

    /** Traced runs only. */
    Tracer spans;
    rbv::obs::MergedMetrics counters;
};

/** Epoch durations from the first event and the checkpoint stamps. */
std::vector<double> epochDurationsMs(Clock::time_point first,
                                     const std::vector<Clock::time_point> &);

/** Run a serve workload through exp::runServe (untraced). */
RunOutcome runServeUntraced(const Workload &w, std::uint64_t seed,
                            std::size_t requests);

/**
 * Run a serve workload through the benchmark's copy of the serve
 * loop, with layer spans and an obs::Session for the work counters.
 */
RunOutcome runServeTraced(const Workload &w, std::uint64_t seed,
                          std::size_t requests);

/** Drive dist::Topology as rbv_cluster does; traced when asked. */
RunOutcome runCluster(const Workload &w, std::uint64_t seed,
                      std::size_t requests, bool traced);

} // namespace rbvbench

#endif // RBVBENCH_BENCH_HH
