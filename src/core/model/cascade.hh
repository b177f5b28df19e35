/**
 * @file
 * Lower-bound cascade for the async-penalty DTW of Eq. 3.
 *
 * Most distance evaluations in clustering and identification are
 * comparisons against a best-so-far value, not free-standing numbers:
 * k-medoids assignment wants argmin over medoids, re-election wants
 * the member with the smallest summed distance, nearest-medoid
 * scoring wants a min. For those, a cheap sound lower bound that
 * already exceeds the cutoff proves the exact O(m*n) dynamic program
 * could not have changed the answer — so it never runs.
 *
 * The cascade, cheapest first (cascadeDtw() is its only copy):
 *
 *  1. LB_Kim, O(1): every warp path visits the two corner cells
 *     (0,0) and (m-1,n-1) and takes at least |m-n| asynchronous
 *     steps, so
 *
 *         LB_Kim = |x_0-y_0| + |x_{m-1}-y_{n-1}| + |m-n| * p
 *
 *     (the second corner only when it is a distinct cell) is a lower
 *     bound on the Eq. 3 distance.
 *
 *  2. LB_Keogh, O(m) against a precomputed Sakoe-Chiba envelope of
 *     y at radius r (U_i / L_i = max / min of y over [i-r, i+r],
 *     built with a monotonic deque in O(n)). A warp path either
 *     stays within the band |i-j| <= r or leaves it.
 *
 *     In the band, every interior row i is visited at some column
 *     j with |i-j| <= r and pays at least
 *     E_i = max(0, x_i - U_i, L_i - x_i) there, on top of the
 *     corners and |m-n| penalties.
 *
 *     Leaving the band means reaching offset |i-j| = r+1. Each
 *     asynchronous step moves the offset i-j by exactly 1 and a
 *     synchronous step leaves it alone; the offset starts at 0 and
 *     ends at m-n, with |m-n| <= r. Getting from 0 to +-(r+1) takes
 *     r+1 asynchronous steps, and getting from there to m-n takes at
 *     least (r+1) - |m-n| more, so the path pays at least
 *     2*(r+1) - |m-n| penalties besides its corner cells. Hence
 *
 *         LB_Keogh = corners + min(|m-n|*p + sum_i E_i,
 *                                  (2*(r+1) - |m-n|) * p)
 *
 *     and the exit arm disappears when the band covers every cell.
 *     LB_Kim <= LB_Keogh <= DTW holds structurally (for r >= |m-n|;
 *     below that LB_Keogh degenerates to LB_Kim).
 *
 *  3. dtwDistanceEarlyAbandon seeded with the cutoff: the exact DP,
 *     abandoned once the last row's minimum is provably >= cutoff.
 *
 * Iron rule: the cascade only ever *skips* work whose result provably
 * could not alter a strict-< comparison against the cutoff, so every
 * consumer (k-medoids over a DistanceCascade, streaming scoring, the
 * anomaly pair search) produces bit-identical results to the plain
 * kernels. The surviving DPs run on the same kernels as dtwDistance
 * (rolling row below 16 points, the anti-diagonal wavefront above)
 * with the abandon test armed, and memoize, so no cell is ever
 * computed twice.
 */

#ifndef RBV_CORE_MODEL_CASCADE_HH
#define RBV_CORE_MODEL_CASCADE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/model/kmedoids.hh"
#include "core/timeline.hh"
#include "stats/rng.hh"

namespace rbv::core {

/** Sakoe-Chiba min/max envelope of one series at a fixed radius. */
struct SeriesEnvelope
{
    std::vector<double> lower; ///< L_i = min over [i-r, i+r].
    std::vector<double> upper; ///< U_i = max over [i-r, i+r].
    std::size_t radius = 0;
};

/**
 * Build the envelope of @p s at @p radius with two monotonic-deque
 * sweeps, O(n) amortized. Reuses @p out's storage.
 */
void buildEnvelope(const MetricSeries &s, std::size_t radius,
                   SeriesEnvelope &out);

/** Where the cascade resolved its queries (per-instance tallies). */
struct CascadeStats
{
    std::uint64_t lookups = 0;      ///< exact() + atMost() queries.
    std::uint64_t memoHits = 0;     ///< Answered from the memo table.
    std::uint64_t kimPrunes = 0;    ///< Rejected by LB_Kim.
    std::uint64_t keoghPrunes = 0;  ///< Rejected by LB_Keogh.
    std::uint64_t dpRuns = 0;       ///< Reached the exact DP.
    std::uint64_t eaAbandons = 0;   ///< DP abandoned mid-flight.
};

/**
 * One bounded query through the cascade: LB_Kim, then LB_Keogh of x
 * against @p env_y (and of y against @p env_x when given), then the
 * early-abandon DP seeded with @p cutoff. Returns +infinity once a
 * stage proves dtwDistance(x, y, async_penalty) >= cutoff, and
 * otherwise the exact distance, bit-identical to dtwDistance() — it
 * may still be >= cutoff (the cascade is sound, not complete). An
 * infinite cutoff skips the bounds, which could never reach it.
 *
 * Each resolution bumps the model.lb_kim_prunes,
 * model.lb_keogh_prunes or model.cascade_dp_runs counter (the DP
 * counts model.dtw_early_abandons itself) and, when given,
 * @p tallies.
 */
double cascadeDtw(const MetricSeries &x, const MetricSeries &y,
                  double async_penalty, double cutoff,
                  const SeriesEnvelope &env_y,
                  const SeriesEnvelope *env_x = nullptr,
                  CascadeStats *tallies = nullptr);

/**
 * Memoizing cascade oracle over a fixed set of series: per-series
 * envelopes built up front, a packed n*(n-1)/2 memo of exact
 * distances filled on demand, and the LB cascade answering
 * bounded queries without running the DP when it can.
 *
 * Queries are logically const — they only fill the memo and the
 * tallies — so kMedoids() takes the cascade like any other distance
 * oracle. Not thread-safe, const queries included.
 */
class DistanceCascade
{
  public:
    /**
     * @param items         The series, by pointer (not copied; must
     *                      outlive the cascade).
     * @param n             Number of series.
     * @param async_penalty Eq. 3 asynchrony penalty.
     */
    DistanceCascade(const MetricSeries *const *items, std::size_t n,
                    double async_penalty);

    std::size_t size() const { return count; }

    /**
     * Exact dtwDistance(items[i], items[j]), memoized. Bit-identical
     * to calling the kernel directly.
     */
    double exact(std::size_t i, std::size_t j) const;

    /**
     * Bounded query: when the cascade proves
     * d(i, j) >= cutoff, returns false and leaves @p d untouched —
     * skipping the DP entirely when a lower bound suffices.
     * Otherwise computes (and memoizes) the exact distance into
     * @p d and returns true. A true result is always the exact,
     * bit-identical distance, and below @p cutoff unless i == j.
     */
    bool atMost(std::size_t i, std::size_t j, double cutoff,
                double &d) const;

    /**
     * O(1) lower bound: the memoized exact value when known, LB_Kim
     * deflated by the prune margin otherwise. For sum-abandon checks
     * in re-election loops.
     */
    double lowerBound(std::size_t i, std::size_t j) const;

    const CascadeStats &stats() const { return tallies; }

  private:
    std::size_t packedIndex(std::size_t i, std::size_t j) const;

    const MetricSeries *const *items;
    std::size_t count;
    double asyncPenalty;
    std::vector<SeriesEnvelope> envelopes;
    mutable std::vector<double> memo; ///< NaN = unknown, packed.
    mutable CascadeStats tallies;
};

extern template Clustering kMedoids(const DistanceCascade &,
                                    std::size_t, stats::Rng &,
                                    std::size_t);

} // namespace rbv::core

#endif // RBV_CORE_MODEL_CASCADE_HH
