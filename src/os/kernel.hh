/**
 * @file
 * The simulated operating system kernel.
 *
 * Responsibilities (mirroring the instrumented Linux 2.6.18 kernel of
 * the paper):
 *  - thread and process management with per-core runqueues, scheduling
 *    quanta, and a pluggable scheduling policy (Sec. 5.2);
 *  - system call dispatch, including blocking I/O and socket-style
 *    channels connecting server tiers;
 *  - request context construction: tracking which request each core
 *    is executing across context switches and channel (socket) hops,
 *    per Shen et al. [27], with exact per-request counter totals and
 *    system call sequences as experiment ground truth;
 *  - instrumentation hooks at syscall entry, request context switch,
 *    thread schedule-in, and request completion, which the sampling
 *    subsystem (the paper's contribution) attaches to.
 */

#ifndef RBV_OS_KERNEL_HH
#define RBV_OS_KERNEL_HH

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "os/faults.hh"
#include "os/hooks.hh"
#include "os/ids.hh"
#include "os/request.hh"
#include "os/scheduler.hh"
#include "os/syscall.hh"
#include "os/thread.hh"
#include "sim/machine.hh"

namespace rbv::os {

/** Kernel tunables. */
struct KernelConfig
{
    /**
     * Direct cost of a context switch (kernel path), excluding cache
     * pollution, which the cache model produces organically.
     */
    sim::FixedWork contextSwitchCost{6000.0, 2600.0, 45.0, 12.0};

    /** Cap on the recorded per-request syscall sequence length. */
    std::size_t maxSyscallSeq = 4096;
};

/** Aggregate kernel statistics. */
struct KernelStats
{
    std::uint64_t contextSwitches = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t reschedAttempts = 0;
    std::uint64_t reschedSwitches = 0;
    std::uint64_t syscalls = 0;
    std::uint64_t wakeups = 0;

    // Fault-injection accounting (zero without a fault layer).
    std::uint64_t lostSwitchContexts = 0; ///< Lost switch hooks.
    double faultStallCycles = 0.0; ///< Injected syscall stall cycles.
    std::uint64_t droppedDeliveries = 0; ///< Messages lost in-network.
    std::uint64_t delayedDeliveries = 0; ///< Messages delayed in-network.
};

/**
 * The kernel.
 */
class Kernel : public sim::CoreClient
{
  public:
    /**
     * @param machine The machine to drive (its CoreClient must be
     *                wired to this kernel by the caller/builder).
     * @param cfg     Kernel tunables.
     * @param policy  Scheduling policy; defaults to round-robin.
     */
    Kernel(sim::Machine &machine, KernelConfig cfg = KernelConfig{},
           std::shared_ptr<SchedulerPolicy> policy = nullptr);

    /** @name Setup (before start()) */
    /// @{
    ProcessId createProcess(std::string name);
    ThreadId createThread(ProcessId proc,
                          std::unique_ptr<ThreadLogic> logic);
    ChannelId createChannel();

    /**
     * Attach a sink to a channel: messages sent there are delivered
     * synchronously to the callback instead of queuing (models the
     * reply socket back to the client).
     */
    void setChannelSink(ChannelId ch,
                        std::function<void(const Message &)> sink);

    /** Register an instrumentation hook (not owned). */
    void addHooks(KernelHooks *hooks);

    /**
     * Attach a fault-injection layer (null detaches; not owned).
     * When null — the default — the kernel never consults it and
     * behaves byte-identically to a build without the fi layer.
     */
    void setFaults(KernelFaults *f) { faults = f; }

    /** Distribute threads over runqueues and start dispatching. */
    void start();
    /// @}

    /** @name External request interface (the load driver) */
    /// @{
    /** Create a request record; returns its id. */
    RequestId registerRequest(std::string class_name, const void *spec);

    /** Inject a message from outside (network arrival). */
    void post(ChannelId ch, Message msg);

    /** Mark a request complete (called from a reply-channel sink). */
    void completeRequest(RequestId id);

    /**
     * Recycle the record of a completed request. Returns false —
     * and releases nothing — while the id is still referenced (in
     * context on a core, or held by a thread between the reply and
     * its next recv); callers retry later. On success the slot id
     * is reused by a future registerRequest, which is what keeps a
     * serving run's kernel state bounded. Batch runs never call
     * this, so their id assignment is unchanged.
     */
    bool releaseRequest(RequestId id);
    /// @}

    /** @name Introspection */
    /// @{
    sim::Machine &machine() { return mach; }
    sim::EventQueue &eventQueue() { return mach.eventQueue(); }
    sim::Tick now() const { return machRef().eventQueue().now(); }

    ThreadId runningThread(sim::CoreId core) const;
    RequestId currentRequest(sim::CoreId core) const;

    const RequestInfo &request(RequestId id) const;
    RequestInfo &requestMutable(RequestId id);
    std::size_t numRequests() const { return reqs.size(); }
    std::size_t completedRequests() const { return numCompleted; }

    const KernelStats &stats() const { return kstats; }
    SchedulerPolicy &policy() { return *sched; }
    const KernelConfig &config() const { return cfg; }

    /** Runqueue length of a core (excluding the running thread). */
    std::size_t runqueueLength(sim::CoreId core) const;
    /// @}

    /** sim::CoreClient: a core retired its assigned instructions. */
    void onWorkComplete(sim::CoreId core) override;

  private:
    enum class ThreadState : std::uint8_t
    {
        Runnable,
        Running,
        Blocked,
        Exited,
    };

    struct Thread
    {
        ThreadId id = InvalidThreadId;
        ProcessId proc = InvalidProcessId;
        std::unique_ptr<ThreadLogic> logic;
        ThreadState state = ThreadState::Runnable;

        /** Home core (runqueue residence / last core). */
        sim::CoreId core = sim::InvalidCoreId;

        RequestId request = InvalidRequestId;

        /** Partially executed segment saved at preemption. */
        bool hasWork = false;
        sim::WorkParams workParams;
        double workInsRemaining = 0.0;

        /** Saved cache footprint. */
        sim::SavedFootprint footprint;
        int footprintDomain = -1;

        /** recv result pending delivery at next schedule-in. */
        bool hasPendingMsg = false;
        Message pendingMsg;
    };

    struct ChannelState
    {
        std::deque<Message> queue;
        std::deque<ThreadId> waiters;
        std::function<void(const Message &)> sink;
    };

    struct CoreSched
    {
        ThreadId running = InvalidThreadId;
        std::deque<ThreadId> rq;
        RequestId request = InvalidRequestId;
        sim::CounterSnapshot lastAttrib;
        sim::EventId quantumEv = sim::InvalidEventId;
    };

    const sim::Machine &machRef() const { return mach; }

    /** Accrue the counter delta since the last attribution boundary. */
    void attribute(sim::CoreId core);

    /** Change the request context of a core (fires hooks). */
    void setCoreRequest(sim::CoreId core, RequestId next);

    /** Pick and switch in the next thread; idles the core if none. */
    void dispatch(sim::CoreId core);

    /** Switch a thread onto an empty core. */
    void switchIn(sim::CoreId core, ThreadId tid);

    /** Remove the running thread from a core into @p next_state. */
    void switchOut(sim::CoreId core, ThreadState next_state);

    /** Drive a thread's action loop until it runs or leaves the core. */
    void runThread(sim::CoreId core, ThreadId tid);

    /**
     * Execute one system call.
     * @return True if the thread continues on-core.
     */
    bool handleSyscall(sim::CoreId core, ThreadId tid,
                       const ActSyscall &act);

    /**
     * Deliver a message into a channel (send or external post),
     * consulting the fault layer (message loss / in-network delay)
     * exactly once. The dormant path (no faults attached) is
     * untouched.
     */
    void deliver(ChannelId ch, Message msg);

    /** Fault-free delivery core (also the delayed-delivery target). */
    void deliverNow(ChannelId ch, Message msg);

    /** Make a blocked thread runnable and place it on a runqueue. */
    void wake(ThreadId tid);

    /** (Re)arm the quantum timer of a core. */
    void resetQuantum(sim::CoreId core);

    /** Quantum expired on a core. */
    void quantumFired(sim::CoreId core);

    /** Periodic re-scheduling attempt (contention easing, 5 ms). */
    void reschedFired(sim::CoreId core);

    Thread &thr(ThreadId id) { return *threads[id]; }
    const Thread &thr(ThreadId id) const { return *threads[id]; }

    sim::Machine &mach;
    KernelConfig cfg;
    std::shared_ptr<SchedulerPolicy> sched;

    std::vector<std::unique_ptr<Thread>> threads;
    std::vector<std::string> processes;
    std::vector<ChannelState> channels;
    std::vector<CoreSched> coreSched;
    std::vector<RequestInfo> reqs;
    std::vector<RequestId> freeSlots;
    std::vector<KernelHooks *> hooks;
    KernelFaults *faults = nullptr;

    std::size_t numCompleted = 0;
    std::size_t numRegistered = 0;
    bool started = false;
    KernelStats kstats;
};

} // namespace rbv::os

#endif // RBV_OS_KERNEL_HH
