/**
 * @file
 * Declarative multi-tier topologies over a Cluster, with
 * fault-tolerant RPC between tiers.
 *
 * A TopologySpec describes a chain of tiers (LB -> app -> DB), each
 * replicated N ways; Topology materializes one cluster node per
 * replica, wires ingress/reply channels, and drives every request
 * through the tier chain hop by hop under an RpcPolicy: per-attempt
 * deadlines, bounded retries with deterministic backoff, optional
 * hedged seconds, and per-replica circuit breakers (health.hh).
 *
 * Failover preserves identity and accounting: a retried hop reuses
 * the same global request id, so the per-node counter totals of the
 * dead and the surviving replica both fold into one
 * GlobalRequestInfo (the PR 4 graceful-degradation contract — a dead
 * replica degrades the request, never loses it). Exhausted retries
 * mark the request failed (degraded, exit 3 at the driver), never
 * hang: every attempt carries a deadline event.
 *
 * Determinism: the whole cluster runs on one simulated clock in one
 * thread; every lottery (backoff jitter, service-time spread,
 * replica choice) is a stateless hash of (seed, ids), so stdout and
 * the injection log are byte-identical across reruns and at any
 * `--jobs` level.
 */

#ifndef RBV_DIST_TOPOLOGY_HH
#define RBV_DIST_TOPOLOGY_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dist/cluster.hh"
#include "dist/health.hh"
#include "dist/rpc.hh"
#include "sim/event_queue.hh"
#include "stats/online.hh"

namespace rbv::dist {

class ClusterFaultSession;

/** One tier of the serving chain. */
struct TierSpec
{
    std::string name;
    int replicas = 1;

    /** Mean service demand per request (thousands of instructions). */
    double serviceKiloIns = 60.0;

    /** Deterministic per-attempt spread around the mean (+- frac). */
    double serviceSpreadFrac = 0.3;

    /** Service-phase CPI. */
    double serviceCpi = 1.2;

    /** Cores per replica node. */
    int cores = 1;

    /** Worker threads per replica. */
    int workers = 2;
};

/**
 * A chain of replicated tiers.
 *
 * CLI grammar (`--topology`):
 *
 *     <spec> ::= <tier> [',' <tier>]...
 *     <tier> ::= <name> ':' <replicas> [':' <kilo-ins>]
 *
 * e.g. `lb:1:20,app:2:80,db:2:140`. Replicas lie in [1, 16] and
 * kilo-ins in (0, 1e6]. Unknown shapes and out-of-range values are
 * parse errors (a typo must never silently build a different
 * cluster).
 */
struct TopologySpec
{
    std::vector<TierSpec> tiers;

    /** One-way link latency between adjacent tiers (and client). */
    sim::Tick linkLatencyTicks = sim::usToCycles(80.0);

    static bool parse(const std::string &text, TopologySpec &out,
                      std::string &error);

    /** Canonical re-parseable rendering. */
    std::string summary() const;

    int totalNodes() const;
};

/** Message-tag codec: the high 16 bits carry the sending node. */
constexpr std::uint64_t TagTokenMask = (std::uint64_t{1} << 48) - 1;

inline std::uint64_t
encodeTag(NodeId fromNode, std::uint64_t token)
{
    // fromNode -1 is the external client; bias keeps it encodable.
    return (static_cast<std::uint64_t>(fromNode + 2) << 48) |
           (token & TagTokenMask);
}

inline NodeId
tagPeer(std::uint64_t tag)
{
    return static_cast<NodeId>(tag >> 48) - 2;
}

inline std::uint64_t
tagToken(std::uint64_t tag)
{
    return tag & TagTokenMask;
}

/**
 * A running multi-tier deployment: owns the event queue and the
 * Cluster, mediates every tier hop under the RpcPolicy.
 */
class Topology
{
  public:
    Topology(const TopologySpec &spec, const RpcPolicy &policy,
             const BreakerConfig &breaker, std::uint64_t seed);
    ~Topology();

    Topology(const Topology &) = delete;
    Topology &operator=(const Topology &) = delete;

    sim::EventQueue &eventQueue() { return eq; }
    Cluster &cluster() { return cl; }
    const TopologySpec &spec() const { return spec_; }

    int tierCount() const { return static_cast<int>(tiers.size()); }
    const ReplicaHealth &health(int tier, int replica) const;

    /**
     * Every (node, channel) pair that carries network traffic —
     * tier ingress and reply channels — for the fault layer to
     * classify deliveries as link traffic.
     */
    std::vector<std::pair<NodeId, os::ChannelId>> linkEndpoints()
        const;

    /** Start all node kernels. Call once, before inject(). */
    void start();

    /** Inject one request at tier 0 (a client network arrival). */
    GlobalRequestId inject(const std::string &className = "cluster");

    /** Called once per request when it completes or fails. */
    void setResolvedCallback(
        std::function<void(GlobalRequestId, bool ok)> cb)
    {
        resolvedCb = std::move(cb);
    }

    std::size_t injectedCount() const { return injected_; }
    std::size_t completedCount() const { return completed_; }
    std::size_t failedCount() const { return failed_; }
    bool allResolved() const
    {
        return completed_ + failed_ == injected_;
    }

    const RpcStats &rpcStats() const { return stats_; }

    /** End-to-end latency (us) of every completed request, in
     * completion order. */
    const std::vector<double> &completedLatenciesUs() const
    {
        return latenciesUs;
    }

    /** One breaker transition of one replica, for run reports. */
    struct BreakerEvent
    {
        sim::Tick tick = 0;
        int tier = 0;
        int replica = 0;
        BreakerState from = BreakerState::Closed;
        BreakerState to = BreakerState::Closed;
    };

    /** All replica breaker transitions, ordered by (tick, tier,
     * replica): the golden-testable breaker history of a run. */
    std::vector<BreakerEvent> breakerHistory() const;

  private:
    struct Replica
    {
        NodeId node = -1;
        os::ChannelId ingress = os::InvalidChannelId;
        os::ChannelId reply = os::InvalidChannelId;
        ReplicaHealth health;
    };

    struct TierRt
    {
        TierSpec spec;
        std::vector<Replica> replicas;
        /** Observed hop latency (us) feeding the hedge trigger. */
        stats::SlidingQuantile hopLatencyUs{128};
    };

    /** One outstanding RPC attempt, keyed by token. */
    struct Attempt
    {
        GlobalRequestId gid = InvalidGlobalRequestId;
        int tier = 0;
        int replica = -1;
        sim::Tick sentAt = 0;
    };

    /** Per-request progress through the tier chain. */
    struct ReqState
    {
        int tier = 0;
        int attempt = 0;        ///< Retry ordinal at the current hop.
        bool hedged = false;    ///< Hedge already issued at this hop.
        int lastReplica = -1;   ///< Replica of the latest attempt.
        NodeId prevNode = -1;   ///< Upstream node (-1 = client).
        std::vector<std::uint64_t> liveTokens;
        bool completed = false;
        bool failed = false;
    };

    void sendAttempt(GlobalRequestId gid, int tier, int attempt,
                     bool hedge);
    void onDeadline(std::uint64_t token);
    void maybeHedge(std::uint64_t token, int armedAttempt);
    void onReply(int tier, int replica, const os::Message &msg);
    void scheduleRetryOrFail(GlobalRequestId gid, int tier);
    void failRequest(GlobalRequestId gid);
    void resolve(GlobalRequestId gid, bool ok);
    void dropToken(ReqState &rs, std::uint64_t token);

    TopologySpec spec_;
    RpcPolicy policy;
    BreakerConfig breakerCfg;
    std::uint64_t seed;

    sim::EventQueue eq;
    Cluster cl;
    std::vector<TierRt> tiers;

    std::deque<ReqState> reqStates; ///< Indexed by global id.
    std::map<std::uint64_t, Attempt> attempts;
    std::uint64_t nextToken = 1;

    RpcStats stats_;
    std::size_t injected_ = 0;
    std::size_t completed_ = 0;
    std::size_t failed_ = 0;
    std::vector<double> latenciesUs;
    std::function<void(GlobalRequestId, bool)> resolvedCb;
    bool started = false;
};

} // namespace rbv::dist

#endif // RBV_DIST_TOPOLOGY_HH
