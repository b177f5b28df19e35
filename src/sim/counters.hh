/**
 * @file
 * Per-core hardware performance counters.
 *
 * Models the Xeon 5160 counter architecture the paper relies on: two
 * fixed counters (non-halt CPU cycles and retired instructions) plus
 * two general-purpose counters, each programmable to one of several
 * hardware events. The experiments program the general counters to L2
 * references and L2 misses.
 */

#ifndef RBV_SIM_COUNTERS_HH
#define RBV_SIM_COUNTERS_HH

#include <array>
#include <cstdint>

#include "core/check.hh"

namespace rbv::sim {

/** Hardware events selectable on the general-purpose counters. */
enum class HwEvent
{
    L2References,
    L2Misses,
    BusTransactions,      ///< Proportional to L2 miss traffic.
    BranchInstructions,   ///< Synthetic fixed fraction of instructions.
    FloatingPointOps,     ///< Synthetic fixed fraction of instructions.
};

/** Number of general-purpose counter registers per core. */
constexpr int NumGeneralCounters = 2;

/**
 * Architectural width of a counter register read, in bits. The
 * Core-2-era fixed and general counters are 40 bits wide.
 */
constexpr int CounterRegisterBits = 40;

/** Largest value a counter register read can report. */
constexpr std::uint64_t CounterRegisterMax =
    (std::uint64_t{1} << CounterRegisterBits) - 1;

/**
 * Convert a continuous counter total to its integer register read.
 * The pinned semantics are CLAMP, not wrap: a total past the
 * register width reads as "pegged at max", which samplers can detect
 * as saturation, instead of silently restarting from zero and faking
 * a plausible small value. Negative and non-finite totals read zero
 * (impossible on real hardware, but a fault-injected read must still
 * produce a defined register value).
 */
constexpr std::uint64_t
toCounterRegister(double total)
{
    if (!(total > 0.0))
        return 0;
    if (total >= static_cast<double>(CounterRegisterMax))
        return CounterRegisterMax;
    return static_cast<std::uint64_t>(total);
}

/**
 * Snapshot of the event totals a sampler reads.
 *
 * Values are continuous (double) internally; integer register views
 * are available on PerfCounters. All experiments consume deltas of
 * these fields.
 */
struct CounterSnapshot
{
    double cycles = 0.0;       ///< Non-halt CPU cycles (fixed ctr 0).
    double instructions = 0.0; ///< Retired instructions (fixed ctr 1).
    double l2Refs = 0.0;       ///< L2 cache references.
    double l2Misses = 0.0;     ///< L2 cache misses.

    CounterSnapshot
    operator-(const CounterSnapshot &o) const
    {
        return {cycles - o.cycles, instructions - o.instructions,
                l2Refs - o.l2Refs, l2Misses - o.l2Misses};
    }

    CounterSnapshot &
    operator+=(const CounterSnapshot &o)
    {
        cycles += o.cycles;
        instructions += o.instructions;
        l2Refs += o.l2Refs;
        l2Misses += o.l2Misses;
        return *this;
    }
};

/**
 * The per-core counter register file.
 *
 * The simulator accrues events through accrue(); samplers read
 * snapshot() or the integer register views. The general counters are
 * derived from the accrued event stream according to their selectors.
 */
class PerfCounters
{
  public:
    PerfCounters()
    {
        selectors[0] = HwEvent::L2References;
        selectors[1] = HwEvent::L2Misses;
    }

    /** Program a general counter to count the given event. */
    void
    program(int counter, HwEvent ev)
    {
        selectors[counter] = ev;
    }

    /**
     * Accrue events. Called by the core execution model at every
     * resynchronization and by observer-effect injection.
     */
    void
    accrue(double cycles, double instructions, double l2_refs,
           double l2_misses)
    {
        // Hardware counters only count up: a negative accrual would
        // make a snapshot delta regress, silently corrupting every
        // sampled timeline downstream. The tolerance absorbs the
        // sub-event rounding residue of proportional fixed-work
        // draining.
        constexpr double tol = -1e-6;
        RBV_DCHECK(cycles >= tol && instructions >= tol &&
                       l2_refs >= tol && l2_misses >= tol,
                   "counter accrual regressed: cycles="
                       << cycles << " ins=" << instructions
                       << " refs=" << l2_refs << " misses="
                       << l2_misses);
        totals.cycles += cycles;
        totals.instructions += instructions;
        totals.l2Refs += l2_refs;
        totals.l2Misses += l2_misses;
    }

    /** Continuous snapshot of the canonical event totals. */
    const CounterSnapshot &snapshot() const { return totals; }

    /** Fixed counter 0: non-halt cycles (integer register view). */
    std::uint64_t
    fixedCycles() const
    {
        return toCounterRegister(totals.cycles);
    }

    /** Fixed counter 1: retired instructions. */
    std::uint64_t
    fixedInstructions() const
    {
        return toCounterRegister(totals.instructions);
    }

    /** General counter register view per its programmed selector. */
    std::uint64_t
    general(int counter) const
    {
        return toCounterRegister(eventValue(selectors[counter]));
    }

    /** Continuous value of an event per the accrued totals. */
    double
    eventValue(HwEvent ev) const
    {
        switch (ev) {
          case HwEvent::L2References:
            return totals.l2Refs;
          case HwEvent::L2Misses:
            return totals.l2Misses;
          case HwEvent::BusTransactions:
            // One bus transaction per L2 miss line fill plus a small
            // writeback fraction.
            return totals.l2Misses * 1.3;
          case HwEvent::BranchInstructions:
            return totals.instructions * 0.18;
          case HwEvent::FloatingPointOps:
            return totals.instructions * 0.05;
        }
        return 0.0;
    }

  private:
    CounterSnapshot totals;
    std::array<HwEvent, NumGeneralCounters> selectors{};
};

} // namespace rbv::sim

#endif // RBV_SIM_COUNTERS_HH
