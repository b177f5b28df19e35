/**
 * @file
 * Server application builder and the two load drivers: the original
 * closed-loop driver of the batch figure benches, and the open-loop
 * driver behind `rbv_serve` (arrivals keep coming whether or not
 * earlier requests finished).
 */

#ifndef RBV_WL_SERVER_HH
#define RBV_WL_SERVER_HH

#include <functional>
#include <memory>
#include <vector>

#include "os/kernel.hh"
#include "stats/rng.hh"
#include "wl/arrival.hh"
#include "wl/generator.hh"
#include "wl/spec.hh"

namespace rbv::wl {

/**
 * Instantiates a multi-tier server application on a kernel: one
 * process per tier, a channel per tier, a worker pool per tier, and
 * a reply channel whose sink the load driver owns.
 */
class ServerApp
{
  public:
    ServerApp(os::Kernel &kernel, const std::vector<TierSpec> &tiers);

    os::ChannelId tierChannel(int tier) const { return chans[tier]; }
    const std::vector<os::ChannelId> &tierChannels() const
    {
        return chans;
    }
    os::ChannelId replyChannel() const { return reply; }
    int numTiers() const { return static_cast<int>(chans.size()); }

  private:
    std::vector<os::ChannelId> chans;
    os::ChannelId reply = os::InvalidChannelId;
};

/**
 * Closed-loop load driver: a fixed population of virtual users, each
 * injecting its next request an exponentially distributed think time
 * after its previous reply. Injection stops after a target number of
 * requests; the event loop is stopped when the last reply arrives.
 */
class LoadDriver
{
  public:
    struct Config
    {
        int concurrency = 8;
        std::size_t targetRequests = 1000;
        double thinkTimeUs = 1000.0;
    };

    LoadDriver(os::Kernel &kernel, ServerApp &app, Generator &gen,
               stats::Rng rng, Config cfg);

    /** Inject the initial user population (call after Kernel::start). */
    void start();

    std::size_t completed() const { return numCompleted; }
    std::size_t injected() const { return numInjected; }

    /** Request spec by request id (nullptr if unknown). */
    const RequestSpec *specOf(os::RequestId id) const;

    /** All request ids this driver injected, in injection order. */
    const std::vector<os::RequestId> &requestIds() const { return ids; }

  private:
    void inject();
    void onReply(const os::Message &msg);

    os::Kernel &kernel;
    ServerApp &app;
    Generator &gen;
    stats::Rng rng;
    Config cfg;

    std::vector<std::unique_ptr<RequestSpec>> specs;
    std::vector<os::RequestId> ids;
    std::vector<const RequestSpec *> specByRequest;
    std::size_t numInjected = 0;
    std::size_t numCompleted = 0;
};

/**
 * Open-loop load driver: requests arrive on an ArrivalProcess
 * schedule, independent of completions. Unlike the closed-loop
 * driver it retains nothing per request — each spec lives only while
 * its request is outstanding, and completed kernel request slots are
 * recycled (Kernel::releaseRequest) as soon as they fall quiescent —
 * so memory stays flat over arbitrarily long serving runs. Arrivals
 * beyond a configurable outstanding cap are shed, which both models
 * server-side admission control and bounds memory under overload.
 */
class OpenLoopDriver
{
  public:
    struct Config
    {
        ArrivalConfig arrival;
        /** Arrivals to generate; 0 = unbounded (duration-driven). */
        std::size_t targetRequests = 0;
        /** Shed arrivals beyond this many outstanding requests. */
        std::size_t maxOutstanding = 4096;
    };

    /**
     * Invoked on each completion, after the kernel froze the totals
     * and before the request slot and spec are recycled: the last
     * point at which kernel.request(id) and the spec are valid.
     */
    using CompletionCallback =
        std::function<void(os::RequestId, const RequestSpec &)>;

    OpenLoopDriver(os::Kernel &kernel, ServerApp &app, Generator &gen,
                   stats::Rng rng, Config cfg);

    /** Schedule the first arrival (call after Kernel::start). */
    void start();

    void
    setCompletionCallback(CompletionCallback cb)
    {
        onComplete = std::move(cb);
    }

    /** Arrivals generated (injected + shed). */
    std::size_t arrivals() const { return numArrivals; }
    std::size_t injected() const { return numInjected; }
    std::size_t completed() const { return numCompleted; }
    /** Arrivals dropped at the admission cap. */
    std::size_t shed() const { return numShed; }
    std::size_t outstanding() const
    {
        return numInjected - numCompleted;
    }

    /** Spec of an outstanding request (nullptr once recycled). */
    const RequestSpec *specOf(os::RequestId id) const;

  private:
    void scheduleNextArrival();
    void onArrival();
    void onReply(const os::Message &msg);
    void tryRelease(os::RequestId id);
    void maybeStop();

    os::Kernel &kernel;
    ServerApp &app;
    Generator &gen;
    stats::Rng rng;
    Config cfg;
    ArrivalProcess arrival;

    /** Live specs, indexed by (recycled) request id — bounded. */
    std::vector<std::unique_ptr<RequestSpec>> specByRequest;
    std::vector<os::RequestId> pendingRelease;
    CompletionCallback onComplete;

    std::size_t numArrivals = 0;
    std::size_t numInjected = 0;
    std::size_t numCompleted = 0;
    std::size_t numShed = 0;
};

} // namespace rbv::wl

#endif // RBV_WL_SERVER_HH
