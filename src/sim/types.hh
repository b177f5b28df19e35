/**
 * @file
 * Fundamental simulator types and time conversions.
 *
 * The global simulated clock counts CPU cycles of a machine whose
 * cores are all synchronous at a fixed frequency (3.0 GHz by default,
 * matching the paper's Intel Xeon 5160 "Woodcrest" platform). All
 * durations inside the simulator are expressed in cycles; helpers
 * convert to and from wall-clock units.
 */

#ifndef RBV_SIM_TYPES_HH
#define RBV_SIM_TYPES_HH

#include <cstdint>

namespace rbv::sim {

/** Simulated time in CPU cycles. */
using Tick = std::uint64_t;

/** Core identifier (dense, 0-based). */
using CoreId = int;

/** Sentinel for "no core". */
constexpr CoreId InvalidCoreId = -1;

/** Default core frequency in GHz (Xeon 5160 "Woodcrest"). */
constexpr double DefaultFreqGhz = 3.0;

/** Cycles per microsecond at the given frequency. */
constexpr double
cyclesPerUs(double freq_ghz = DefaultFreqGhz)
{
    return freq_ghz * 1000.0;
}

/** Convert microseconds to cycles (rounded down). */
constexpr Tick
usToCycles(double us, double freq_ghz = DefaultFreqGhz)
{
    return static_cast<Tick>(us * cyclesPerUs(freq_ghz));
}

/** Convert milliseconds to cycles. */
constexpr Tick
msToCycles(double ms, double freq_ghz = DefaultFreqGhz)
{
    return usToCycles(ms * 1000.0, freq_ghz);
}

/** Convert cycles to microseconds. */
constexpr double
cyclesToUs(double cycles, double freq_ghz = DefaultFreqGhz)
{
    return cycles / cyclesPerUs(freq_ghz);
}

/** Convert cycles to milliseconds. */
constexpr double
cyclesToMs(double cycles, double freq_ghz = DefaultFreqGhz)
{
    return cyclesToUs(cycles, freq_ghz) / 1000.0;
}

} // namespace rbv::sim

#endif // RBV_SIM_TYPES_HH
