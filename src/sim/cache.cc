/**
 * @file
 * Shared L2 cache contention model implementation.
 */

#include "sim/cache.hh"

#include "core/check.hh"
#include "obs/obs.hh"

namespace rbv::sim {

void
waterFillTargets(double capacity, std::span<const double> weights,
                 std::span<const double> working_sets,
                 std::span<double> targets,
                 std::span<unsigned char> capped)
{
    RBV_CHECK(weights.size() == working_sets.size() &&
                  weights.size() == targets.size() &&
                  weights.size() == capped.size(),
              "water-fill arity mismatch: " << weights.size()
                  << " weights vs " << working_sets.size()
                  << " working sets, " << targets.size()
                  << " targets, " << capped.size() << " flags");
    RBV_PROF_SCOPE(WaterFill);
    RBV_COUNT(SimWaterFills, 1);
    const std::size_t n = weights.size();
    std::fill(targets.begin(), targets.end(), 0.0);
    if (n == 0 || capacity <= 0.0)
        return;

    std::fill(capped.begin(), capped.end(), 0);
    double remaining = capacity;

    for (std::size_t round = 0; round < n; ++round) {
        double weight_sum = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            if (!capped[i])
                weight_sum += std::max(weights[i], 0.0);

        bool any_new_cap = false;
        if (weight_sum <= 0.0) {
            // No demand left: split the remainder evenly among the
            // uncapped runners (they still occupy *something*).
            std::size_t uncapped = 0;
            for (std::size_t i = 0; i < n; ++i)
                if (!capped[i])
                    ++uncapped;
            for (std::size_t i = 0; i < n && uncapped; ++i) {
                if (capped[i])
                    continue;
                double share = remaining / static_cast<double>(uncapped);
                if (working_sets[i] > 0.0)
                    share = std::min(share, working_sets[i]);
                targets[i] = share;
            }
            break;
        }

        for (std::size_t i = 0; i < n; ++i) {
            if (capped[i])
                continue;
            const double share =
                remaining * std::max(weights[i], 0.0) / weight_sum;
            if (working_sets[i] > 0.0 && working_sets[i] <= share) {
                targets[i] = working_sets[i];
                capped[i] = 1;
                any_new_cap = true;
            } else {
                targets[i] = share;
            }
        }

        if (!any_new_cap)
            break;

        remaining = capacity;
        for (std::size_t i = 0; i < n; ++i)
            if (capped[i])
                remaining -= targets[i];
        remaining = std::max(remaining, 0.0);
    }

    // Water-filling must never hand out more than the domain holds.
    double total = 0.0;
    for (double t : targets)
        total += t;
    RBV_DCHECK(total <= capacity * (1.0 + 1e-9),
               "water-fill over-allocated " << total << " of "
                                            << capacity << " bytes");
}

std::vector<double>
waterFillTargets(double capacity, const std::vector<double> &weights,
                 const std::vector<double> &working_sets)
{
    std::vector<double> targets(weights.size());
    std::vector<unsigned char> capped(weights.size());
    waterFillTargets(capacity, weights, working_sets, targets, capped);
    return targets;
}

double
advanceOccupancy(double occupancy, double target,
                 double fill_bytes_per_cycle, double co_pressure,
                 double capacity, double dt)
{
    if (dt <= 0.0)
        return occupancy;

    if (occupancy < target) {
        // Asymptotic fill toward the target; the time constant is the
        // target size divided by the fill bandwidth.
        const double fill = std::max(fill_bytes_per_cycle, 0.0);
        if (fill <= 0.0)
            return occupancy;
        const double tau = std::max(target, CacheLineBytes) / fill;
        return target + (occupancy - target) * std::exp(-dt / tau);
    }

    // Above target: the excess is evicted by co-runner insertions.
    if (co_pressure <= 0.0 || capacity <= 0.0)
        return occupancy;
    const double excess = occupancy - target;
    return target + excess * std::exp(-dt * co_pressure / capacity);
}

} // namespace rbv::sim
