/**
 * @file
 * Request differencing measures (Sec. 4.1).
 *
 * Implemented measures, in the order the paper evaluates them:
 *  - Levenshtein string edit distance over system call sequences
 *    (the software-metric-only approach of Magpie [10]);
 *  - difference of average request metric values (Shen et al. [27]);
 *  - L1 distance of metric value sequences with a penalty for
 *    unequal request lengths (Eq. 2);
 *  - dynamic time warping distance (Eq. 3);
 *  - dynamic time warping with an additional penalty per
 *    asynchronous warp step (the paper's enhancement).
 */

#ifndef RBV_CORE_MODEL_DISTANCE_HH
#define RBV_CORE_MODEL_DISTANCE_HH

#include <cstdint>
#include <vector>

#include "core/timeline.hh"
#include "os/syscall.hh"
#include "stats/rng.hh"

namespace rbv::core {

/**
 * L1 distance between two metric series, Eq. 2:
 *
 *   L1(X,Y) = sum_{i<=min(m,n)} |x_i - y_i| + |m - n| * p
 *
 * @param x, y Metric series over fixed-length periods.
 * @param p    Penalty per unmatched element (peak-level metric
 *             difference of the application; see lengthPenalty()).
 */
double l1Distance(const MetricSeries &x, const MetricSeries &y,
                  double p);

/**
 * Dynamic time warping distance, Eq. 3, with an optional penalty per
 * asynchronous warp step. async_penalty == 0 yields the classic DTW.
 *
 * O(m*n) dynamic program over the two warp pointers; both pointers
 * start at the beginnings and must reach the ends; a step advances
 * either both pointers (synchronous) or one (asynchronous).
 *
 * Allocation-free in steady state: the DP rows live in the calling
 * thread's DistanceScratch arena.
 */
double dtwDistance(const MetricSeries &x, const MetricSeries &y,
                   double async_penalty = 0.0);

/**
 * Early-abandoning DTW for nearest-neighbor style queries: returns
 * the exact DTW value (bit-identical to dtwDistance()) when it is
 * provably below @p cutoff, and +infinity as soon as a whole DP row
 * reaches @p cutoff (every warp path crosses every row, so the final
 * value can no longer be smaller). A finite return value is always
 * exact, even if it ends up >= cutoff.
 *
 * Requires @p async_penalty >= 0 (checked by RBV_DCHECK): only then
 * do row minima never decrease, which is what makes a row at or above
 * the cutoff final. The result is +infinity exactly when the last
 * row's minimum is >= cutoff, whichever kernel runs, so the set of
 * abandoned calls does not depend on the dispatch.
 */
double dtwDistanceEarlyAbandon(const MetricSeries &x,
                               const MetricSeries &y,
                               double async_penalty, double cutoff);

/**
 * Difference of average request metric values (the request-signature
 * form of the authors' prior work [27]).
 */
double avgMetricDistance(const MetricSeries &x, const MetricSeries &y);

/**
 * Levenshtein edit distance between two system call sequences
 * (insertion, deletion, substitution all cost 1).
 *
 * Sequences longer than @p max_len are uniformly subsampled first
 * (the paper's TPCH/WeBWorK requests issue thousands of calls;
 * exact O(m*n) on those is impractical inside k-medoids). The
 * subsample is a view when no reduction is needed and a scratch-arena
 * copy otherwise — never a fresh allocation in steady state.
 *
 * When every symbol fits the 64-symbol bit-parallel alphabet (the
 * full os::Sys catalogue does), the DP runs as Myers' bit-parallel
 * recurrence over 64-row blocks of the shorter sequence —
 * O(ceil(m/64) * n) word operations instead of O(m*n) cell updates —
 * and falls back to the scalar DP for wider alphabets. Both paths
 * return the exact distance.
 */
double levenshteinDistance(const std::vector<os::Sys> &a,
                           const std::vector<os::Sys> &b,
                           std::size_t max_len = 512);

/**
 * Compute the length/asynchrony penalty p of Eq. 2 for an
 * application: the 99-percentile of the distribution of metric
 * differences at two arbitrary points of application execution,
 * estimated over random point pairs drawn from the given series.
 */
double lengthPenalty(const std::vector<MetricSeries> &series,
                     stats::Rng &rng, double q = 0.99,
                     std::size_t pairs = 20000);

/** The differencing measures compared in Fig. 7. */
enum class Measure
{
    LevenshteinSyscalls,
    AvgMetric,
    L1,
    Dtw,
    DtwAsyncPenalty,
};

/** Display name of a measure. */
const char *measureName(Measure m);

} // namespace rbv::core

#endif // RBV_CORE_MODEL_DISTANCE_HH
