/**
 * @file
 * Anomaly detection implementation.
 */

#include "core/model/anomaly.hh"

#include <algorithm>
#include <cmath>

#include "core/check.hh"
#include "core/model/cascade.hh"
#include "core/model/distance.hh"
#include "stats/summary.hh"

namespace rbv::core {

CentroidAnomaly
detectCentroidAnomaly(const std::vector<MetricSeries> &series,
                      double async_penalty, int jobs)
{
    CentroidAnomaly out;
    const std::size_t n = series.size();
    if (n < 2)
        return out;

    const DistanceMatrix dm = DistanceMatrix::build(
        n,
        [&](std::size_t i, std::size_t j) {
            return dtwDistance(series[i], series[j], async_penalty);
        },
        jobs);

    // Centroid: minimal summed distance to all members.
    std::size_t centroid = 0;
    double best = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
        double sum = 0.0;
        for (std::size_t j = 0; j < n; ++j)
            sum += dm.at(i, j);
        if (best < 0.0 || sum < best) {
            best = sum;
            centroid = i;
        }
    }
    out.centroid = centroid;

    // Rank members by distance from the centroid, farthest first.
    out.ranking.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        out.ranking[i] = i;
    std::sort(out.ranking.begin(), out.ranking.end(),
              [&](std::size_t a, std::size_t b) {
                  return dm.at(a, centroid) > dm.at(b, centroid);
              });
    out.anomaly = out.ranking.front();
    out.distance = dm.at(out.anomaly, centroid);
    return out;
}

MetricPairAnomaly
detectMetricPairAnomaly(const std::vector<MetricSeries> &refs_series,
                        const std::vector<MetricSeries> &cpi_series,
                        double refs_penalty, double cpi_penalty)
{
    RBV_CHECK(refs_series.size() == cpi_series.size(),
              "detectMetricPairAnomaly needs parallel series, got "
                  << refs_series.size() << " refs and "
                  << cpi_series.size() << " CPI");
    MetricPairAnomaly out;
    const std::size_t n = refs_series.size();
    if (n < 2)
        return out;

    // The pair search only consumes a refs distance when it is small
    // enough to displace the incumbent, so the refs side runs as
    // bounded queries against a cascade over the refs series: most
    // refs DPs are rejected by a sound lower bound before they start.
    std::vector<const MetricSeries *> refs;
    refs.reserve(n);
    for (const auto &s : refs_series)
        refs.push_back(&s);
    const DistanceCascade refs_dc(refs.data(), n, refs_penalty);

    // Normalize distances per metric by series length so the score
    // is scale-free, then search all pairs.
    double best_score = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            const double len = static_cast<double>(
                std::max(refs_series[i].size(), refs_series[j].size()));
            if (len == 0.0)
                continue;
            const double dcpi =
                dtwDistance(cpi_series[i], cpi_series[j], cpi_penalty) /
                len;
            // The pair search maximizes dcpi / (dref + 1e-9): a pair
            // can only displace the incumbent when its refs distance
            // is small, dref < dcpi / best_score - 1e-9. Rejecting
            // every refs distance at or above the strictly larger
            // bound dcpi / best_score is therefore conservative — the
            // trailing 1e-9 slack dwarfs any rounding in the bound —
            // and an accepted distance is bit-identical to the plain
            // kernel, so the winning pair (and every printed number)
            // is unchanged.
            double dref;
            if (best_score > 0.0) {
                const double cutoff = dcpi / best_score * len;
                if (!refs_dc.atMost(i, j, cutoff, dref))
                    continue;
                dref /= len;
            } else {
                dref = dtwDistance(refs_series[i], refs_series[j],
                                   refs_penalty) /
                       len;
            }
            const double score = dcpi / (dref + 1e-9);
            if (score > best_score) {
                best_score = score;
                const bool i_is_anomaly =
                    stats::mean(cpi_series[i]) >
                    stats::mean(cpi_series[j]);
                out.anomaly = i_is_anomaly ? i : j;
                out.reference = i_is_anomaly ? j : i;
                out.refsDistance = dref;
                out.cpiDistance = dcpi;
                out.score = score;
            }
        }
    }
    return out;
}

} // namespace rbv::core
