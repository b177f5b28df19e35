/**
 * @file
 * Multi-tier topology construction and fault-tolerant hop
 * orchestration.
 */

#include "dist/topology.hh"

#include <algorithm>
#include <sstream>

#include "fi/plan.hh"
#include "obs/obs.hh"

namespace rbv::dist {

namespace {

/**
 * Replica worker: recv from the tier ingress, execute the request's
 * service demand, echo the message (tag and request context intact)
 * to the reply channel. The demand is a stateless lottery of the
 * attempt token, so a re-sent attempt re-executes a deterministic
 * amount of work.
 */
struct ReplicaLogic final : os::ThreadLogic
{
    os::ChannelId in;
    os::ChannelId out;
    double kiloIns;
    double cpi;
    double spreadFrac;
    std::uint64_t seed;
    std::uint64_t salt;

    ReplicaLogic(os::ChannelId in, os::ChannelId out, double kiloIns,
                 double cpi, double spreadFrac, std::uint64_t seed,
                 std::uint64_t salt)
        : in(in), out(out), kiloIns(kiloIns), cpi(cpi),
          spreadFrac(spreadFrac), seed(seed), salt(salt)
    {
    }

    bool haveMsg = false;
    bool executed = false;
    os::Message msg;

    os::Action
    next() override
    {
        if (!haveMsg) {
            os::ActSyscall a;
            a.id = os::Sys::recv;
            a.args.behavior = os::SysBehavior::ChannelRecv;
            a.args.channel = in;
            return a;
        }
        if (!executed) {
            executed = true;
            const double u = fi::unitIntervalHash(
                seed, 0x3e41ceu + salt, tagToken(msg.tag));
            sim::WorkParams p;
            p.baseCpi = cpi;
            p.refsPerIns = 0.02;
            const double ins =
                kiloIns * 1000.0 *
                (1.0 + spreadFrac * (2.0 * u - 1.0));
            return os::ActExec{p, std::max(ins, 1000.0)};
        }
        haveMsg = false;
        executed = false;
        os::ActSyscall a;
        a.id = os::Sys::send;
        a.args.behavior = os::SysBehavior::ChannelSend;
        a.args.channel = out;
        a.args.msg = msg; // echo: reply keeps tag + request context
        return a;
    }

    void
    onMessage(const os::Message &m) override
    {
        msg = m;
        haveMsg = true;
    }
};

} // namespace

// ------------------------------------------------------ TopologySpec

bool
TopologySpec::parse(const std::string &text, TopologySpec &out,
                    std::string &error)
{
    out.tiers.clear();
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty()) {
            error = "empty tier in topology \"" + text + "\"";
            return false;
        }
        std::stringstream ts(item);
        std::string name, repl, kilo;
        std::getline(ts, name, ':');
        if (!std::getline(ts, repl, ':')) {
            error = "tier \"" + item +
                    "\" needs <name>:<replicas>[:<kilo-ins>]";
            return false;
        }
        std::getline(ts, kilo, ':');
        std::string extra;
        if (std::getline(ts, extra, ':')) {
            error = "tier \"" + item + "\" has trailing fields";
            return false;
        }
        TierSpec tier;
        tier.name = name;
        if (name.empty()) {
            error = "tier with empty name in \"" + text + "\"";
            return false;
        }
        try {
            std::size_t pos = 0;
            tier.replicas = std::stoi(repl, &pos);
            if (pos != repl.size())
                throw std::invalid_argument(repl);
        } catch (const std::exception &) {
            error = "bad number in tier \"" + item + "\"";
            return false;
        }
        if (tier.replicas < 1 || tier.replicas > 16) {
            error = "tier \"" + name +
                    "\": replicas must be in [1, 16]";
            return false;
        }
        // A finite, bounded demand (at most a billion instructions a
        // hop) keeps every service phase's cycle count a tick.
        if (!kilo.empty() &&
            (!fi::parseFinite(kilo, tier.serviceKiloIns) ||
             !(tier.serviceKiloIns > 0.0 &&
               tier.serviceKiloIns <= 1e6))) {
            error = "tier \"" + name +
                    "\": kilo-ins must be a number in (0, 1e6]: \"" +
                    kilo + "\"";
            return false;
        }
        for (const auto &t : out.tiers) {
            if (t.name == name) {
                error = "duplicate tier name \"" + name + "\"";
                return false;
            }
        }
        out.tiers.push_back(std::move(tier));
    }
    if (out.tiers.empty()) {
        error = "topology \"" + text + "\" has no tiers";
        return false;
    }
    return true;
}

std::string
TopologySpec::summary() const
{
    std::ostringstream os;
    bool first = true;
    for (const auto &t : tiers) {
        if (!first)
            os << ',';
        first = false;
        os << t.name << ':' << t.replicas << ':' << t.serviceKiloIns;
    }
    return os.str();
}

int
TopologySpec::totalNodes() const
{
    int n = 0;
    for (const auto &t : tiers)
        n += t.replicas;
    return n;
}

// ---------------------------------------------------------- Topology

Topology::Topology(const TopologySpec &spec, const RpcPolicy &policy,
                   const BreakerConfig &breaker, std::uint64_t seed)
    : spec_(spec), policy(policy), breakerCfg(breaker), seed(seed),
      cl(eq)
{
    RBV_CHECK(!spec_.tiers.empty(), "topology needs >= 1 tier");
    for (std::size_t ti = 0; ti < spec_.tiers.size(); ++ti) {
        const TierSpec &ts = spec_.tiers[ti];
        TierRt rt;
        rt.spec = ts;
        for (int ri = 0; ri < ts.replicas; ++ri) {
            NodeConfig cfg;
            cfg.name = ts.name + "/" + std::to_string(ri);
            cfg.machine.numCores = ts.cores;
            cfg.machine.coresPerL2Domain = ts.cores >= 2 ? 2 : 1;
            Replica rep;
            rep.node = cl.addNode(cfg);
            rep.health = ReplicaHealth(breakerCfg);
            os::Kernel &k = cl.kernel(rep.node);
            rep.ingress = k.createChannel();
            rep.reply = k.createChannel();
            const os::ProcessId proc = k.createProcess(cfg.name);
            for (int w = 0; w < ts.workers; ++w) {
                k.createThread(
                    proc,
                    std::make_unique<ReplicaLogic>(
                        rep.ingress, rep.reply, ts.serviceKiloIns,
                        ts.serviceCpi, ts.serviceSpreadFrac, seed,
                        static_cast<std::uint64_t>(ti)));
            }
            const int tier = static_cast<int>(ti);
            k.setChannelSink(
                rep.reply, [this, tier, ri](const os::Message &m) {
                    // Return-path network latency to the caller side.
                    eq.scheduleIn(spec_.linkLatencyTicks,
                                  [this, tier, ri, m] {
                                      onReply(tier, ri, m);
                                  });
                });
            rt.replicas.push_back(std::move(rep));
        }
        tiers.push_back(std::move(rt));
    }
}

Topology::~Topology() = default;

const ReplicaHealth &
Topology::health(int tier, int replica) const
{
    RBV_CHECK(tier >= 0 && tier < tierCount(), "bad tier " << tier);
    const auto &reps = tiers[static_cast<std::size_t>(tier)].replicas;
    RBV_CHECK(replica >= 0 &&
                  replica < static_cast<int>(reps.size()),
              "bad replica " << replica);
    return reps[static_cast<std::size_t>(replica)].health;
}

std::vector<std::pair<NodeId, os::ChannelId>>
Topology::linkEndpoints() const
{
    std::vector<std::pair<NodeId, os::ChannelId>> out;
    for (const auto &t : tiers) {
        for (const auto &r : t.replicas) {
            out.emplace_back(r.node, r.ingress);
            out.emplace_back(r.node, r.reply);
        }
    }
    return out;
}

void
Topology::start()
{
    RBV_CHECK(!started, "topology started twice");
    started = true;
    cl.start();
}

GlobalRequestId
Topology::inject(const std::string &className)
{
    RBV_CHECK(started, "inject() before start()");
    const GlobalRequestId gid = cl.registerRequest(className);
    RBV_CHECK(static_cast<std::size_t>(gid) == reqStates.size(),
              "global id/state desync");
    reqStates.emplace_back();
    ++injected_;
    sendAttempt(gid, 0, 0, false);
    return gid;
}

void
Topology::dropToken(ReqState &rs, std::uint64_t token)
{
    auto it =
        std::find(rs.liveTokens.begin(), rs.liveTokens.end(), token);
    if (it != rs.liveTokens.end())
        rs.liveTokens.erase(it);
}

void
Topology::sendAttempt(GlobalRequestId gid, int tier, int attempt,
                      bool hedge)
{
    ReqState &rs = reqStates[static_cast<std::size_t>(gid)];
    TierRt &T = tiers[static_cast<std::size_t>(tier)];
    const int n = static_cast<int>(T.replicas.size());
    const sim::Tick now = eq.now();

    // Deterministic replica choice: first try spreads by global id,
    // retries/hedges rotate away from the replica that just failed
    // (or is being hedged against). Breaker-ejected replicas are
    // skipped; an Open breaker past its cooldown admits the probe.
    int base;
    if (attempt == 0 && !hedge)
        base = static_cast<int>(gid % n);
    else
        base = (rs.lastReplica >= 0 ? rs.lastReplica + 1 : 0) % n;
    int pick = -1;
    for (int k = 0; k < n; ++k) {
        const int i = (base + k) % n;
        if (hedge && n > 1 && i == rs.lastReplica)
            continue;
        if (T.replicas[static_cast<std::size_t>(i)].health.admit(
                now)) {
            pick = i;
            break;
        }
    }
    if (pick < 0) {
        // Every breaker rejected the send. A hedge just fizzles; a
        // primary attempt goes through the bounded retry path so the
        // request degrades (fails) instead of hanging.
        ++stats_.noReplica;
        if (!hedge)
            scheduleRetryOrFail(gid, tier);
        return;
    }

    ++stats_.attempts;
    RBV_COUNT(DistRpcAttempts, 1);
    if (hedge) {
        ++stats_.hedges;
        RBV_COUNT(DistHedges, 1);
    } else if (attempt > 0) {
        ++stats_.retries;
        RBV_COUNT(DistRetries, 1);
        if (rs.lastReplica >= 0 && pick != rs.lastReplica) {
            ++stats_.failovers;
            RBV_COUNT(DistFailovers, 1);
        }
    }
    if (!hedge)
        rs.lastReplica = pick;

    Replica &rep = T.replicas[static_cast<std::size_t>(pick)];
    const std::uint64_t token = nextToken++;
    attempts[token] = Attempt{gid, tier, pick, now};
    rs.liveTokens.push_back(token);

    os::Message m;
    m.tag = encodeTag(rs.prevNode, token);
    m.bytes = 512.0;
    const NodeId node = rep.node;
    const os::ChannelId ingress = rep.ingress;
    eq.scheduleIn(spec_.linkLatencyTicks,
                  [this, node, ingress, m, gid] {
                      cl.post(node, ingress, m, gid);
                  });

    // Every attempt carries a deadline: a lost message can only cost
    // a timeout, never a hang.
    eq.scheduleIn(policy.deadlineTicks,
                  [this, token] { onDeadline(token); });

    if (!hedge && policy.hedgeQuantile > 0.0 && !rs.hedged &&
        n > 1 && T.hopLatencyUs.size() >= policy.hedgeWarmup) {
        const double qUs =
            T.hopLatencyUs.quantile(policy.hedgeQuantile);
        const sim::Tick trigger = std::max(
            policy.hedgeMinTicks,
            static_cast<sim::Tick>(sim::usToCycles(qUs)));
        if (trigger < policy.deadlineTicks)
            eq.scheduleIn(trigger, [this, token, attempt] {
                maybeHedge(token, attempt);
            });
    }
}

void
Topology::onDeadline(std::uint64_t token)
{
    auto it = attempts.find(token);
    if (it == attempts.end())
        return; // attempt already resolved or abandoned
    const Attempt a = it->second;
    attempts.erase(it);
    ++stats_.timeouts;
    tiers[static_cast<std::size_t>(a.tier)]
        .replicas[static_cast<std::size_t>(a.replica)]
        .health.onFailure(eq.now());

    ReqState &rs = reqStates[static_cast<std::size_t>(a.gid)];
    dropToken(rs, token);
    if (rs.completed || rs.failed || rs.tier != a.tier)
        return;
    if (!rs.liveTokens.empty())
        return; // a hedge sibling is still in flight
    scheduleRetryOrFail(a.gid, a.tier);
}

void
Topology::maybeHedge(std::uint64_t token, int armedAttempt)
{
    auto it = attempts.find(token);
    if (it == attempts.end())
        return; // the attempt already resolved: nothing to hedge
    const Attempt a = it->second;
    ReqState &rs = reqStates[static_cast<std::size_t>(a.gid)];
    if (rs.completed || rs.failed || rs.tier != a.tier ||
        rs.attempt != armedAttempt || rs.hedged)
        return;
    rs.hedged = true;
    sendAttempt(a.gid, a.tier, rs.attempt, true);
}

void
Topology::onReply(int tier, int replica, const os::Message &msg)
{
    const std::uint64_t token = tagToken(msg.tag);
    auto it = attempts.find(token);
    if (it == attempts.end()) {
        // Reply of an abandoned attempt (hedge loser, post-timeout
        // straggler): dropped, the hop already moved on.
        ++stats_.lateReplies;
        return;
    }
    const Attempt a = it->second;
    attempts.erase(it);
    TierRt &T = tiers[static_cast<std::size_t>(tier)];
    T.replicas[static_cast<std::size_t>(replica)].health.onSuccess(
        eq.now());

    ReqState &rs = reqStates[static_cast<std::size_t>(a.gid)];
    dropToken(rs, token);
    if (rs.completed || rs.failed)
        return;
    RBV_DCHECK(rs.tier == a.tier, "reply for a stale hop");
    T.hopLatencyUs.add(
        sim::cyclesToUs(static_cast<double>(eq.now() - a.sentAt)));

    // First reply wins the hop: abandon any sibling attempts (their
    // deadline events and replies become no-ops).
    for (const std::uint64_t t : rs.liveTokens)
        attempts.erase(t);
    rs.liveTokens.clear();

    const NodeId servedBy =
        T.replicas[static_cast<std::size_t>(replica)].node;
    if (a.tier + 1 < tierCount()) {
        rs.tier = a.tier + 1;
        rs.attempt = 0;
        rs.hedged = false;
        rs.lastReplica = -1;
        rs.prevNode = servedBy;
        sendAttempt(a.gid, rs.tier, 0, false);
    } else {
        cl.completeRequest(a.gid);
        rs.completed = true;
        ++completed_;
        latenciesUs.push_back(sim::cyclesToUs(static_cast<double>(
            eq.now() - cl.request(a.gid).injected)));
        resolve(a.gid, true);
    }
}

void
Topology::scheduleRetryOrFail(GlobalRequestId gid, int tier)
{
    ReqState &rs = reqStates[static_cast<std::size_t>(gid)];
    const int next = rs.attempt + 1;
    if (next >= policy.maxAttempts) {
        failRequest(gid);
        return;
    }
    rs.attempt = next;
    rs.hedged = false;
    const sim::Tick wait = policy.backoffTicks(seed, gid, next);
    eq.scheduleIn(wait, [this, gid, tier, next] {
        ReqState &rs2 = reqStates[static_cast<std::size_t>(gid)];
        if (rs2.completed || rs2.failed || rs2.tier != tier ||
            rs2.attempt != next)
            return;
        sendAttempt(gid, tier, next, false);
    });
}

void
Topology::failRequest(GlobalRequestId gid)
{
    ReqState &rs = reqStates[static_cast<std::size_t>(gid)];
    if (rs.completed || rs.failed)
        return;
    for (const std::uint64_t t : rs.liveTokens)
        attempts.erase(t);
    rs.liveTokens.clear();
    rs.failed = true;
    ++failed_;
    // Degraded, not lost: freeze and fold whatever per-node
    // accounting the request accumulated before giving up (the PR 4
    // graceful-degradation contract).
    cl.completeRequest(gid);
    resolve(gid, false);
}

void
Topology::resolve(GlobalRequestId gid, bool ok)
{
    if (resolvedCb)
        resolvedCb(gid, ok);
}

std::vector<Topology::BreakerEvent>
Topology::breakerHistory() const
{
    std::vector<BreakerEvent> out;
    for (std::size_t ti = 0; ti < tiers.size(); ++ti) {
        const auto &reps = tiers[ti].replicas;
        for (std::size_t ri = 0; ri < reps.size(); ++ri) {
            for (const auto &t : reps[ri].health.transitions()) {
                BreakerEvent e;
                e.tick = t.tick;
                e.tier = static_cast<int>(ti);
                e.replica = static_cast<int>(ri);
                e.from = t.from;
                e.to = t.to;
                out.push_back(e);
            }
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const BreakerEvent &a, const BreakerEvent &b) {
                         return a.tick < b.tick;
                     });
    return out;
}

} // namespace rbv::dist
