/**
 * @file
 * The multicore machine model.
 *
 * The Machine owns the cores, their performance counters, the shared
 * L2 domains, and the memory model, and advances execution in
 * piecewise-constant-rate windows: between any two events every core
 * executes at a fixed effective CPI computed from the co-runner set;
 * any state change (work assignment, segment completion, fixed-work
 * injection) resynchronizes all cores and re-derives the rates.
 *
 * Work comes in two forms:
 *  - regular work: a number of user instructions executing under a
 *    WorkParams description, fully subject to cache and bandwidth
 *    contention; and
 *  - fixed work: contention-immune event bundles (cycles,
 *    instructions, L2 references, L2 misses) used for kernel syscall
 *    handling, context-switch costs, and the observer effect of
 *    counter sampling (Table 1 of the paper).
 *
 * Fixed work drains before regular work resumes. An APIC-style cycle
 * timer per core fires a callback after a given number of non-halt
 * cycles, which is how the paper generates periodic sampling
 * interrupts from counter overflow.
 */

#ifndef RBV_SIM_MACHINE_HH
#define RBV_SIM_MACHINE_HH

#include <algorithm>
#include <deque>
#include <functional>
#include <vector>

#include "sim/cache.hh"
#include "sim/counters.hh"
#include "sim/event_queue.hh"
#include "sim/memory.hh"
#include "sim/types.hh"

namespace rbv::sim {

/** Static machine configuration. */
struct MachineConfig
{
    int numCores = 4;

    /** Cores per shared-L2 domain (Woodcrest: 2). */
    int coresPerL2Domain = 2;

    double freqGhz = DefaultFreqGhz;

    /** Shared L2 capacity per domain in bytes (4 MB). */
    double l2CapacityBytes = 4.0 * 1024 * 1024;

    /** L2 hit latency in cycles (14 on the paper's platform). */
    double l2HitLatencyCycles = 14.0;

    MemoryParams memory;

    /**
     * Interval of the model refresh tick that bounds the error of the
     * piecewise-constant-rate approximation; 0 disables it.
     */
    Tick modelRefreshIntervalCycles = usToCycles(50.0);
};

/** Description of regular (contention-subject) work. */
struct WorkParams
{
    /** Pipeline CPI excluding all L2-access stalls (> 0). */
    double baseCpi = 1.0;

    /** L2 references per instruction. */
    double refsPerIns = 0.0;

    /** Miss-ratio curve of this execution phase. */
    MissCurve curve;
};

/** Contention-immune event bundle (kernel overheads, observer effect). */
struct FixedWork
{
    double cycles = 0.0;
    double instructions = 0.0;
    double l2Refs = 0.0;
    double l2Misses = 0.0;
};

/**
 * Client interface through which the machine reports segment
 * completion (implemented by the OS kernel).
 */
class CoreClient
{
  public:
    virtual ~CoreClient() = default;

    /** The regular work assigned to @p core has retired fully. */
    virtual void onWorkComplete(CoreId core) = 0;
};

/**
 * The multicore machine.
 */
class Machine
{
  public:
    Machine(const MachineConfig &cfg, EventQueue &eq,
            CoreClient *client = nullptr);

    /**
     * Late-bind the completion client (the kernel is typically
     * constructed after the machine). Must be set before any work is
     * assigned.
     */
    void setClient(CoreClient *c) { client = c; }

    const MachineConfig &config() const { return cfg; }
    int numCores() const { return cfg.numCores; }

    /** L2 domain index of a core. */
    int
    domainOf(CoreId core) const
    {
        return core / cfg.coresPerL2Domain;
    }

    /**
     * Assign regular work to a core, replacing any current regular
     * work. Pending fixed work still drains first.
     */
    void setWork(CoreId core, const WorkParams &params,
                 double instructions);

    /** Remove regular work (core halts once fixed work drains). */
    void clearWork(CoreId core);

    /** True if the core has unfinished regular work. */
    bool busy(CoreId core) const { return cores[core].busy; }

    /** Instructions left in the current regular work (resyncs). */
    double insRemaining(CoreId core);

    /** Queue contention-immune work (drains before regular work). */
    void pushFixedWork(CoreId core, const FixedWork &work);

    /** Current cache footprint of the work on this core (bytes). */
    double occupancy(CoreId core);

    /** Replace the cache footprint (used at context switches). */
    void setOccupancy(CoreId core, double bytes);

    /** Cumulative bytes inserted into this core's L2 domain. */
    double domainInsertionIntegral(CoreId core);

    /** Counter file of a core, resynchronized to now. */
    const PerfCounters &counters(CoreId core);

    /** Mutable counter file (for programming selectors). */
    PerfCounters &programCounters(CoreId core);

    /**
     * Arm the APIC-style cycle timer: fire @p cb once after the core
     * has accumulated @p cycles additional non-halt cycles. Re-arming
     * replaces any pending timer.
     */
    void armCycleTimer(CoreId core, double cycles,
                       std::function<void()> cb);

    /** Disarm the cycle timer if armed. */
    void disarmCycleTimer(CoreId core);

    /** @name Model introspection (valid between events). */
    /// @{
    double currentCpi(CoreId core) const { return cores[core].effCpi; }
    double
    currentMissRatio(CoreId core) const
    {
        return cores[core].missRatio;
    }
    double
    currentMissesPerIns(CoreId core) const
    {
        const auto &c = cores[core];
        return c.busy ? c.params.refsPerIns * c.missRatio : 0.0;
    }
    double currentMemLatency() const { return memLatency; }
    /// @}

    /** Advance all cores to the event queue's current time. */
    void resync();

    EventQueue &eventQueue() { return eq; }
    const EventQueue &eventQueue() const { return eq; }

  private:
    struct CoreState
    {
        PerfCounters counters;

        bool busy = false;
        WorkParams params;
        double insRemaining = 0.0;
        std::deque<FixedWork> fixedQueue;

        double occupancy = 0.0;

        // Derived rates, valid for the current window. Only
        // recomputeRates() writes them, except that setWork() seeds
        // effCpi, which is part of the rate memo's key.
        double effCpi = 1.0;
        double insPerCycle = 0.0;
        double missRatio = 0.0;
        double fillBytesPerCycle = 0.0;
        double targetOcc = 0.0;
        double coPressure = 0.0;

        EventId boundaryEv = InvalidEventId;

        bool timerArmed = false;
        double timerRemaining = 0.0;
        std::function<void()> timerCb;
        EventId timerEv = InvalidEventId;
    };

    /** First core of an L2 domain. */
    CoreId
    domainBegin(int domain) const
    {
        return domain * cfg.coresPerL2Domain;
    }

    /** One past the last core of an L2 domain. */
    CoreId
    domainEnd(int domain) const
    {
        return std::min(domainBegin(domain) + cfg.coresPerL2Domain,
                        cfg.numCores);
    }

    /** Advance one core by dt cycles of wall time. */
    void advanceCore(CoreState &c, int domain, double dt);

    /** Re-derive all per-core rates from the current co-runner set. */
    void recomputeRates();

    /**
     * Write the rate solve's current input into the memo key.
     * @return True if it differs, bit for bit, from the last solve's.
     */
    bool rateInputChanged();

    /** (Re)schedule boundary and timer events per current rates. */
    void scheduleBoundaries();

    /** The tick @p cycles (finite, >= 0) after now, rounded up. */
    Tick tickAfter(double cycles) const;

    /** Total fixed-work cycles pending on a core. */
    static double fixedCyclesPending(const CoreState &c);

    /** Handle a boundary event on a core. */
    void boundaryFired(CoreId core);

    /** Handle a cycle-timer event on a core. */
    void timerFired(CoreId core);

    /** Refresh tick: resync and re-derive rates. */
    void refreshFired();

    MachineConfig cfg;
    EventQueue &eq;
    CoreClient *client;

    std::vector<CoreState> cores;
    std::vector<double> domainInsertion; ///< Bytes per L2 domain.

    /**
     * One domain's water-fill inputs and outputs, sized once for the
     * largest domain so recomputeRates() allocates nothing.
     */
    struct FillScratch
    {
        std::vector<CoreId> runners;
        std::vector<double> weights, wsets, targets;
        std::vector<unsigned char> capped;
    } fill;

    /**
     * Rate-solve memo: the input of the last full solve of passes
     * 2-4, RateKeyFields doubles per core. While it is valid and
     * matches the current input bit for bit, the outputs in CoreState
     * and memLatency are still exactly that solve's, so the solve is
     * skipped. Valid only after a solve that left every CPI seed
     * unchanged, and sound only because nothing but recomputeRates()
     * writes those outputs; see docs/PERFORMANCE.md "Rate-solve memo".
     */
    static constexpr std::size_t RateKeyFields = 8;
    std::vector<double> rateKey;
    bool rateKeyValid = false;

    MemoryModel memory;
    double memLatency;

    Tick lastSync = 0;
};

} // namespace rbv::sim

#endif // RBV_SIM_MACHINE_HH
