/**
 * @file
 * Simulated kernel implementation.
 */

#include "os/kernel.hh"

#include <algorithm>

#include "core/check.hh"
#include "obs/obs.hh"
#include "sim/types.hh"

namespace rbv::os {

Kernel::Kernel(sim::Machine &machine, KernelConfig cfg,
               std::shared_ptr<SchedulerPolicy> policy)
    : mach(machine), cfg(cfg),
      sched(policy ? std::move(policy)
                   : std::make_shared<RoundRobinPolicy>()),
      coreSched(machine.numCores())
{
}

ProcessId
Kernel::createProcess(std::string name)
{
    processes.push_back(std::move(name));
    return static_cast<ProcessId>(processes.size() - 1);
}

ThreadId
Kernel::createThread(ProcessId proc, std::unique_ptr<ThreadLogic> logic)
{
    auto t = std::make_unique<Thread>();
    t->id = static_cast<ThreadId>(threads.size());
    t->proc = proc;
    t->logic = std::move(logic);
    threads.push_back(std::move(t));
    return threads.back()->id;
}

ChannelId
Kernel::createChannel()
{
    channels.emplace_back();
    return static_cast<ChannelId>(channels.size() - 1);
}

void
Kernel::setChannelSink(ChannelId ch,
                       std::function<void(const Message &)> sink)
{
    channels[ch].sink = std::move(sink);
}

void
Kernel::addHooks(KernelHooks *h)
{
    hooks.push_back(h);
}

void
Kernel::start()
{
    RBV_CHECK(!started, "Kernel::start() called twice");
    started = true;

    // Spread threads over the runqueues round-robin.
    const int n = mach.numCores();
    int next_core = 0;
    for (auto &tp : threads) {
        tp->core = next_core;
        coreSched[next_core].rq.push_back(tp->id);
        next_core = (next_core + 1) % n;
    }
    for (sim::CoreId c = 0; c < n; ++c)
        dispatch(c);

    // Arm the policy's periodic re-scheduling attempts, if any.
    const sim::Tick ri = sched->reschedInterval();
    if (ri > 0) {
        for (sim::CoreId c = 0; c < n; ++c)
            eventQueue().scheduleIn(ri, [this, c] { reschedFired(c); });
    }
}

RequestId
Kernel::registerRequest(std::string class_name, const void *spec)
{
    RequestInfo info;
    if (!freeSlots.empty()) {
        info.id = freeSlots.back();
        freeSlots.pop_back();
    } else {
        info.id = static_cast<RequestId>(reqs.size());
        reqs.emplace_back();
    }
    info.seq = numRegistered;
    info.className = std::move(class_name);
    info.spec = spec;
    info.injected = now();
    const RequestId id = info.id;
    reqs[static_cast<std::size_t>(id)] = std::move(info);
    ++numRegistered;
    obs::simSpanBegin("os.request", "request", id,
                      sim::cyclesToUs(static_cast<double>(now())),
                      "id", static_cast<double>(id));
    return id;
}

bool
Kernel::releaseRequest(RequestId id)
{
    if (id == InvalidRequestId ||
        static_cast<std::size_t>(id) >= reqs.size())
        return false;
    if (!reqs[static_cast<std::size_t>(id)].done)
        return false;
    // The id must be fully quiescent: a core with the request still
    // in context would attribute counters into the reused slot, and
    // a thread holding the id between the reply and its next recv
    // would re-adopt it.
    for (sim::CoreId c = 0; c < mach.numCores(); ++c)
        if (coreSched[c].request == id)
            return false;
    for (const auto &t : threads)
        if (t->state != ThreadState::Exited && t->request == id)
            return false;
    reqs[static_cast<std::size_t>(id)] = RequestInfo{};
    freeSlots.push_back(id);
    return true;
}

void
Kernel::post(ChannelId ch, Message msg)
{
    deliver(ch, msg);
}

void
Kernel::completeRequest(RequestId id)
{
    RBV_CHECK(id != InvalidRequestId &&
                  static_cast<std::size_t>(id) < reqs.size(),
              "completing unknown request " << id);
    RequestInfo &info = reqs[id];
    if (info.done)
        return;
    // Final attribution: the completing request is typically still in
    // context on the core that delivered the reply; fold in everything
    // it executed since the last boundary before freezing the totals.
    for (sim::CoreId c = 0; c < mach.numCores(); ++c)
        if (coreSched[c].request == id)
            attribute(c);
    // Completion time can never precede injection, and the completed
    // count can never pass the registered count.
    RBV_CHECK(now() >= info.injected,
              "request " << id << " completed at " << now()
                         << " before injection at " << info.injected);
    info.done = true;
    info.completed = now();
    ++numCompleted;
    RBV_COUNT(OsRequestsCompleted, 1);
    RBV_HIST(OsRequestLatencyUs,
             sim::cyclesToUs(static_cast<double>(info.completed -
                                                 info.injected)));
    obs::simSpanEnd("os.request", "request", id,
                    sim::cyclesToUs(static_cast<double>(now())));
    RBV_CHECK(numCompleted <= numRegistered);
    for (auto *h : hooks)
        h->onRequestComplete(info);
}

ThreadId
Kernel::runningThread(sim::CoreId core) const
{
    return coreSched[core].running;
}

RequestId
Kernel::currentRequest(sim::CoreId core) const
{
    return coreSched[core].request;
}

const RequestInfo &
Kernel::request(RequestId id) const
{
    return reqs[id];
}

RequestInfo &
Kernel::requestMutable(RequestId id)
{
    return reqs[id];
}

std::size_t
Kernel::runqueueLength(sim::CoreId core) const
{
    return coreSched[core].rq.size();
}

void
Kernel::attribute(sim::CoreId core)
{
    CoreSched &cs = coreSched[core];
    const auto snap = mach.counters(core).snapshot();
    const auto delta = snap - cs.lastAttrib;
    // Counters only count up; a negative delta means the attribution
    // boundary bookkeeping regressed (tolerance covers fixed-work
    // rounding residue).
    RBV_DCHECK(delta.cycles >= -1e-6 && delta.instructions >= -1e-6 &&
                   delta.l2Refs >= -1e-6 && delta.l2Misses >= -1e-6,
               "counter delta regressed on core " << core);
    cs.lastAttrib = snap;
    if (cs.request == InvalidRequestId)
        return;
    RequestInfo &info = reqs[cs.request];
    // Totals freeze at completion: any postamble the worker executes
    // before adopting its next request is deliberately not charged.
    if (!info.done)
        info.totals += delta;
}

void
Kernel::setCoreRequest(sim::CoreId core, RequestId next)
{
    CoreSched &cs = coreSched[core];
    if (cs.request == next)
        return;
    attribute(core);
    // An injected context loss drops the switch notification (the
    // sampler among its consumers); attribution above stays exact.
    if (faults != nullptr && faults->loseSwitchContext(core)) {
        ++kstats.lostSwitchContexts;
    } else {
        for (auto *h : hooks)
            h->onRequestSwitch(core, cs.request, next);
    }
    cs.request = next;
}

void
Kernel::dispatch(sim::CoreId core)
{
    CoreSched &cs = coreSched[core];
    RBV_CHECK(cs.running == InvalidThreadId,
              "dispatch on core " << core << " with thread "
                                  << cs.running << " still running");
    if (cs.rq.empty()) {
        // Core idles; its request context ends here.
        setCoreRequest(core, InvalidRequestId);
        return;
    }

    const std::vector<ThreadId> candidates(cs.rq.begin(), cs.rq.end());
    std::size_t idx = sched->pickNext(*this, core, candidates);
    if (idx >= candidates.size())
        idx = 0;
    const ThreadId chosen = candidates[idx];
    cs.rq.erase(cs.rq.begin() + static_cast<std::ptrdiff_t>(idx));
    switchIn(core, chosen);
}

void
Kernel::switchIn(sim::CoreId core, ThreadId tid)
{
    CoreSched &cs = coreSched[core];
    RBV_CHECK(cs.running == InvalidThreadId,
              "switchIn on busy core " << core);
    Thread &t = thr(tid);
    RBV_CHECK(t.state == ThreadState::Runnable,
              "switchIn of non-runnable thread " << tid);

    // Attribution boundary: sample hooks observe the outgoing request
    // before the switch cost is charged (Sec. 3.1).
    setCoreRequest(core, t.request);

    // Direct kernel switch cost; the cache model charges the indirect
    // pollution cost through the footprint save/restore below.
    mach.pushFixedWork(core, cfg.contextSwitchCost);
    ++kstats.contextSwitches;
    RBV_COUNT(OsContextSwitches, 1);
    obs::simInstant("os.sched", "switch_in", core,
                    sim::cyclesToUs(static_cast<double>(now())),
                    "thread", static_cast<double>(tid));

    // Restore whatever survives of the thread's cache footprint. A
    // footprint in a different L2 domain is worthless here.
    double occ = 0.0;
    if (t.footprintDomain == mach.domainOf(core)) {
        occ = t.footprint.decayedBytes(
            mach.domainInsertionIntegral(core),
            mach.config().l2CapacityBytes);
    }
    mach.setOccupancy(core, occ);

    t.state = ThreadState::Running;
    t.core = core;
    cs.running = tid;
    resetQuantum(core);

    for (auto *h : hooks)
        h->onScheduledIn(core, tid);

    if (t.hasWork) {
        // Resume the preempted segment.
        t.hasWork = false;
        mach.setWork(core, t.workParams, t.workInsRemaining);
        return;
    }
    runThread(core, tid);
}

void
Kernel::switchOut(sim::CoreId core, ThreadState next_state)
{
    CoreSched &cs = coreSched[core];
    const ThreadId tid = cs.running;
    RBV_CHECK(tid != InvalidThreadId,
              "switchOut on idle core " << core);
    Thread &t = thr(tid);

    // Capture the partially executed segment, if any.
    if (mach.busy(core)) {
        t.hasWork = true;
        t.workInsRemaining = mach.insRemaining(core);
        // workParams were stored when the segment was assigned.
        mach.clearWork(core);
    }

    // Save the cache footprint for later decay-adjusted restore.
    t.footprint = sim::SavedFootprint{
        mach.occupancy(core), mach.domainInsertionIntegral(core)};
    t.footprintDomain = mach.domainOf(core);

    t.state = next_state;
    cs.running = InvalidThreadId;
    if (cs.quantumEv != sim::InvalidEventId) {
        eventQueue().cancel(cs.quantumEv);
        cs.quantumEv = sim::InvalidEventId;
    }
}

void
Kernel::runThread(sim::CoreId core, ThreadId tid)
{
    Thread &t = thr(tid);
    while (true) {
        if (t.hasPendingMsg) {
            // recv completion: adopt the message's request context
            // (socket-hop propagation per [27]) and deliver.
            t.hasPendingMsg = false;
            const Message msg = t.pendingMsg;
            t.request = msg.request;
            setCoreRequest(core, msg.request);
            t.logic->onMessage(msg);
        }

        Action a = t.logic->next();

        if (auto *exec = std::get_if<ActExec>(&a)) {
            if (exec->instructions <= 0.0)
                continue;
            t.workParams = exec->params;
            double ins = exec->instructions;
            // A stuck/looping request re-executes its work: the
            // fault layer scales the segment (1.0 when dormant).
            // Keyed by the registration sequence so recycled slot
            // ids draw fresh verdicts (seq == id without recycling).
            if (faults != nullptr && t.request != InvalidRequestId) {
                ins *= faults->execMultiplier(static_cast<RequestId>(
                    reqs[static_cast<std::size_t>(t.request)].seq));
            }
            mach.setWork(core, exec->params, ins);
            return;
        }
        if (auto *sys = std::get_if<ActSyscall>(&a)) {
            if (!handleSyscall(core, tid, *sys))
                return; // blocked; another thread was dispatched
            continue;
        }
        // ActExit
        switchOut(core, ThreadState::Exited);
        dispatch(core);
        return;
    }
}

bool
Kernel::handleSyscall(sim::CoreId core, ThreadId tid,
                      const ActSyscall &act)
{
    Thread &t = thr(tid);
    ++kstats.syscalls;
    RBV_COUNT(OsSyscalls, 1);
    obs::simInstant("os.syscall", sysName(act.id).data(), core,
                    sim::cyclesToUs(static_cast<double>(now())));

    if (t.request != InvalidRequestId) {
        RequestInfo &info = reqs[t.request];
        if (!info.done && info.syscalls.size() < cfg.maxSyscallSeq)
            info.syscalls.push_back(act.id);
    }

    // In-kernel sampling opportunity (Sec. 3.2) before costs land.
    for (auto *h : hooks)
        h->onSyscallEntry(core, tid, t.request, act.id);

    // Kernel-side execution cost.
    const SyscallArgs &args = act.args;
    const double refs = args.kernelInstructions * args.kernelRefsPerIns;
    mach.pushFixedWork(core, sim::FixedWork{
        args.kernelInstructions * args.kernelCpi,
        args.kernelInstructions, refs,
        refs * args.kernelMissRatio});

    // Injected in-kernel stall: burns cycles on this core (visible
    // to the counters) without retiring instructions.
    if (faults != nullptr) {
        const double stall = faults->syscallStallCycles(t.request, act.id);
        if (stall > 0.0) {
            mach.pushFixedWork(core,
                               sim::FixedWork{stall, 0.0, 0.0, 0.0});
            kstats.faultStallCycles += stall;
        }
    }

    switch (args.behavior) {
      case SysBehavior::Plain:
        return true;

      case SysBehavior::ChannelSend: {
        Message msg = args.msg;
        if (msg.request == InvalidRequestId)
            msg.request = t.request; // socket-hop propagation
        deliver(args.channel, msg);
        return true;
      }

      case SysBehavior::ChannelRecv: {
        ChannelState &ch = channels[args.channel];
        if (!ch.queue.empty()) {
            t.pendingMsg = ch.queue.front();
            t.hasPendingMsg = true;
            ch.queue.pop_front();
            return true;
        }
        ch.waiters.push_back(tid);
        switchOut(core, ThreadState::Blocked);
        dispatch(core);
        return false;
      }

      case SysBehavior::BlockTimed: {
        switchOut(core, ThreadState::Blocked);
        const sim::Tick delay =
            static_cast<sim::Tick>(std::max(args.blockCycles, 1.0));
        eventQueue().scheduleIn(delay, [this, tid] { wake(tid); });
        dispatch(core);
        return false;
      }
    }
    return true;
}

void
Kernel::deliver(ChannelId chid, Message msg)
{
    if (faults != nullptr) {
        const DeliveryFault f = faults->messageDelivery(chid, msg);
        if (f.drop) {
            ++kstats.droppedDeliveries;
            RBV_COUNT(OsDroppedDeliveries, 1);
            return;
        }
        if (f.delayCycles > 0.0) {
            ++kstats.delayedDeliveries;
            eventQueue().scheduleIn(
                std::max<sim::Tick>(
                    static_cast<sim::Tick>(f.delayCycles), 1),
                [this, chid, msg] { deliverNow(chid, msg); });
            return;
        }
    }
    deliverNow(chid, msg);
}

void
Kernel::deliverNow(ChannelId chid, Message msg)
{
    ChannelState &ch = channels[chid];
    if (ch.sink) {
        ch.sink(msg);
        return;
    }
    if (!ch.waiters.empty()) {
        const ThreadId w = ch.waiters.front();
        ch.waiters.pop_front();
        Thread &t = thr(w);
        t.pendingMsg = msg;
        t.hasPendingMsg = true;
        wake(w);
        return;
    }
    ch.queue.push_back(msg);
}

void
Kernel::wake(ThreadId tid)
{
    Thread &t = thr(tid);
    if (t.state != ThreadState::Blocked)
        return;
    t.state = ThreadState::Runnable;
    ++kstats.wakeups;
    RBV_COUNT(OsWakeups, 1);

    // Placement: an idle core first (prefer the thread's home core),
    // then the shortest runqueue. Scheduling itself never migrates;
    // only wakeups choose a core, as in the paper's prototype.
    const int n = mach.numCores();
    sim::CoreId target = sim::InvalidCoreId;
    if (t.core != sim::InvalidCoreId &&
        coreSched[t.core].running == InvalidThreadId &&
        coreSched[t.core].rq.empty()) {
        target = t.core;
    }
    if (target == sim::InvalidCoreId) {
        for (sim::CoreId c = 0; c < n; ++c) {
            if (coreSched[c].running == InvalidThreadId &&
                coreSched[c].rq.empty()) {
                target = c;
                break;
            }
        }
    }
    if (target == sim::InvalidCoreId) {
        std::size_t best = ~std::size_t{0};
        for (sim::CoreId c = 0; c < n; ++c) {
            const auto &cs = coreSched[c];
            const std::size_t load =
                cs.rq.size() + (cs.running != InvalidThreadId ? 1 : 0);
            if (load < best) {
                best = load;
                target = c;
            }
        }
    }

    t.core = target;
    coreSched[target].rq.push_back(tid);
    if (coreSched[target].running == InvalidThreadId)
        dispatch(target);
}

void
Kernel::resetQuantum(sim::CoreId core)
{
    CoreSched &cs = coreSched[core];
    auto &eq = eventQueue();
    cs.quantumEv = eq.reschedule(cs.quantumEv, eq.now() + sched->quantum(),
                                 [this, core] { quantumFired(core); });
}

void
Kernel::quantumFired(sim::CoreId core)
{
    CoreSched &cs = coreSched[core];
    cs.quantumEv = sim::InvalidEventId;
    if (cs.running == InvalidThreadId)
        return;
    if (cs.rq.empty()) {
        resetQuantum(core);
        return;
    }
    ++kstats.preemptions;
    RBV_COUNT(OsPreemptions, 1);
    const ThreadId tid = cs.running;
    switchOut(core, ThreadState::Runnable);
    cs.rq.push_back(tid);
    dispatch(core);
}

void
Kernel::reschedFired(sim::CoreId core)
{
    // Re-arm first so an exception-free path always continues.
    eventQueue().scheduleIn(sched->reschedInterval(),
                            [this, core] { reschedFired(core); });

    CoreSched &cs = coreSched[core];
    if (cs.running == InvalidThreadId || cs.rq.empty())
        return;
    ++kstats.reschedAttempts;

    // The current thread is candidate 0: picking it resumes execution
    // with no switch cost (the paper keeps the current request at the
    // head of the runqueue before each adaptive attempt).
    std::vector<ThreadId> candidates;
    candidates.reserve(cs.rq.size() + 1);
    candidates.push_back(cs.running);
    candidates.insert(candidates.end(), cs.rq.begin(), cs.rq.end());

    std::size_t idx = sched->pickNext(*this, core, candidates);
    if (idx == 0 || idx >= candidates.size())
        return;

    ++kstats.reschedSwitches;
    const ThreadId chosen = candidates[idx];
    cs.rq.erase(cs.rq.begin() + static_cast<std::ptrdiff_t>(idx - 1));
    const ThreadId prev = cs.running;
    switchOut(core, ThreadState::Runnable);
    cs.rq.push_front(prev);
    switchIn(core, chosen);
}

void
Kernel::onWorkComplete(sim::CoreId core)
{
    CoreSched &cs = coreSched[core];
    const ThreadId tid = cs.running;
    RBV_CHECK(tid != InvalidThreadId, "work completed on idle core "
                                          << core);
    thr(tid).hasWork = false;
    runThread(core, tid);
}

} // namespace rbv::os
