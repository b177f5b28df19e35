/**
 * @file
 * Shared L2 cache contention model.
 *
 * The model follows the analytic occupancy approach described in
 * DESIGN.md. Each executing workload segment carries a miss-ratio
 * curve parameterized by its working set; the cache capacity of an L2
 * domain (the two cores of one Woodcrest socket) is divided among the
 * co-running segments in proportion to their reference pressure, and
 * each runner's occupancy moves toward its target share with a fill
 * rate set by its miss bandwidth. Descheduled threads' footprints
 * decay under the insertion pressure of whoever runs next, which
 * reproduces the context-switch cache-pollution cost the paper
 * measures at up to 12 ms for cache-sized working sets.
 */

#ifndef RBV_SIM_CACHE_HH
#define RBV_SIM_CACHE_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace rbv::sim {

/** Cache line size in bytes (Xeon 5160 L2: 64-byte lines). */
constexpr double CacheLineBytes = 64.0;

/**
 * Miss-ratio curve for one workload segment.
 *
 * m(c) = clamp(baseMissRatio * (workingSet / c)^exponent, base, 1)
 * for occupancy c below the working set; baseMissRatio at or above
 * it. A zero working set means cache-insensitive (always base).
 */
struct MissCurve
{
    /** Bytes the segment would like resident. */
    double workingSetBytes = 0.0;

    /** Miss ratio when the working set is fully resident. */
    double baseMissRatio = 0.0;

    /** Sensitivity of the miss ratio to lost capacity (>= 0). */
    double exponent = 1.0;

    /** Evaluate the miss ratio at the given occupancy in bytes. */
    double
    missRatioAt(double occupancy_bytes) const
    {
        if (workingSetBytes <= 0.0 || baseMissRatio <= 0.0)
            return std::clamp(baseMissRatio, 0.0, 1.0);
        if (occupancy_bytes >= workingSetBytes)
            return std::min(baseMissRatio, 1.0);
        const double c = std::max(occupancy_bytes, CacheLineBytes);
        const double m =
            baseMissRatio * std::pow(workingSetBytes / c, exponent);
        return std::clamp(m, baseMissRatio, 1.0);
    }
};

/**
 * Saved cache footprint of a descheduled thread.
 *
 * The footprint decays exponentially with the bytes inserted into the
 * domain while the thread was off-core: each inserted byte evicts a
 * proportional share of every resident footprint.
 */
struct SavedFootprint
{
    /** Occupancy in bytes at deschedule time. */
    double bytes = 0.0;

    /** Domain insertion integral (bytes) at deschedule time. */
    double insertionMark = 0.0;

    /**
     * Occupancy remaining after the domain has seen a cumulative
     * insertion integral of @p insertion_now bytes, for a domain of
     * @p capacity bytes.
     */
    double
    decayedBytes(double insertion_now, double capacity) const
    {
        const double inserted = std::max(0.0, insertion_now -
                                              insertionMark);
        if (capacity <= 0.0)
            return 0.0;
        return bytes * std::exp(-inserted / capacity);
    }
};

/**
 * Compute target occupancies for the runners of one cache domain via
 * demand-weighted water-filling.
 *
 * Each runner i has a demand weight w_i (its L2 reference pressure in
 * references per cycle) and a working set W_i. Proportional shares
 * capacity * w_i / sum(w) are computed; runners whose working set is
 * below their share are capped at the working set and the excess
 * capacity is redistributed among the uncapped runners, iterating to
 * a fixed point (at most n rounds).
 *
 * Allocates nothing: the caller owns the output and the scratch.
 *
 * @param capacity     Domain capacity in bytes.
 * @param weights      Demand weight per runner (>= 0).
 * @param working_sets Working set per runner (0 = insensitive).
 * @param targets      Out: target occupancy per runner, summing to
 *                     <= capacity.
 * @param capped       Scratch, one flag per runner.
 */
void waterFillTargets(double capacity, std::span<const double> weights,
                      std::span<const double> working_sets,
                      std::span<double> targets,
                      std::span<unsigned char> capped);

/** Convenience form of the above that returns fresh targets. */
std::vector<double> waterFillTargets(
    double capacity, const std::vector<double> &weights,
    const std::vector<double> &working_sets);

/**
 * Advance a running thread's occupancy over a window of @p dt cycles.
 *
 * Below target, occupancy approaches the target asymptotically with a
 * fill bandwidth of @p fill_bytes_per_cycle; above target, the excess
 * decays under the co-runners' insertion pressure.
 *
 * @param occupancy            Occupancy at window start (bytes).
 * @param target               Target occupancy (bytes).
 * @param fill_bytes_per_cycle This thread's insertion bandwidth.
 * @param co_pressure          Co-runners' insertion bandwidth.
 * @param capacity             Domain capacity (bytes).
 * @param dt                   Window length in cycles.
 * @return Occupancy at window end.
 */
double advanceOccupancy(double occupancy, double target,
                        double fill_bytes_per_cycle,
                        double co_pressure, double capacity, double dt);

} // namespace rbv::sim

#endif // RBV_SIM_CACHE_HH
