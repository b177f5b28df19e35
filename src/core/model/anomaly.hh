/**
 * @file
 * Anomaly detection and analysis (Sec. 4.3).
 *
 * Two detectors:
 *  - Centroid-reference: within a group of requests sharing the same
 *    application-level semantics (e.g., the same TPCH query), the
 *    member farthest from the group centroid shares least common
 *    behavior and is flagged as a suspected anomaly; the centroid
 *    serves as its reference.
 *  - Multi-metric: find anomaly-reference pairs whose L2
 *    references/instruction patterns are very similar (same inherent
 *    reference stream) but whose CPI patterns differ — isolating
 *    adverse dynamic effects of L2 sharing on multicores.
 *
 * Both use the dynamic time warping distance with asynchrony penalty
 * as the differencing measure, per the paper.
 */

#ifndef RBV_CORE_MODEL_ANOMALY_HH
#define RBV_CORE_MODEL_ANOMALY_HH

#include <cstddef>
#include <vector>

#include "core/model/kmedoids.hh"
#include "core/timeline.hh"

namespace rbv::core {

/** Result of centroid-reference anomaly detection. */
struct CentroidAnomaly
{
    std::size_t centroid = 0; ///< Reference request (group centroid).
    std::size_t anomaly = 0;  ///< Farthest member from the centroid.
    double distance = 0.0;    ///< Their differencing distance.

    /** Members ranked by distance from the centroid (descending). */
    std::vector<std::size_t> ranking;
};

/**
 * Detect the suspected anomaly within a same-semantics group.
 *
 * @param series        One metric series per group member.
 * @param async_penalty DTW asynchrony penalty (= length penalty p).
 * @param jobs          Worker threads for the pairwise distance
 *                      matrix (1 = serial; result is byte-identical
 *                      at any job count).
 */
CentroidAnomaly detectCentroidAnomaly(
    const std::vector<MetricSeries> &series, double async_penalty,
    int jobs = 1);

/** Result of multi-metric anomaly-pair detection. */
struct MetricPairAnomaly
{
    std::size_t anomaly = 0;
    std::size_t reference = 0;
    double refsDistance = 0.0; ///< Similarity of L2 refs/ins patterns.
    double cpiDistance = 0.0;  ///< Dissimilarity of CPI patterns.
    double score = 0.0;        ///< cpiDistance / (refsDistance + eps).
};

/**
 * Search for the anomaly-reference pair with the most similar L2
 * reference patterns but the most different CPI patterns. The member
 * with the higher mean CPI of the winning pair is the anomaly.
 *
 * @param refs_series   L2 refs/ins series per request.
 * @param cpi_series    CPI series per request, parallel to
 *                      @p refs_series (sizes must match; checked).
 * @param refs_penalty  DTW asynchrony penalty for the refs metric.
 * @param cpi_penalty   DTW asynchrony penalty for the CPI metric.
 */
MetricPairAnomaly detectMetricPairAnomaly(
    const std::vector<MetricSeries> &refs_series,
    const std::vector<MetricSeries> &cpi_series, double refs_penalty,
    double cpi_penalty);

} // namespace rbv::core

#endif // RBV_CORE_MODEL_ANOMALY_HH
