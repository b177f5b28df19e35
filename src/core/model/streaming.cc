/**
 * @file
 * Streaming model core implementation.
 */

#include "core/model/streaming.hh"

#include <algorithm>
#include <limits>

namespace rbv::core {

bool
StreamingSignatureBank::offer(MetricSeries series, double cpu_cycles,
                              int class_id)
{
    ++seen;
    if (bankImpl.size() < cap) {
        bankImpl.add(std::move(series), cpu_cycles, class_id);
        return true;
    }
    // Algorithm R: entry t survives with probability cap/t, keeping
    // the bank a uniform sample of everything offered so far.
    const std::size_t j =
        static_cast<std::size_t>(rng.uniformInt(seen));
    if (j >= cap)
        return false;
    bankImpl.replaceEntry(j, std::move(series), cpu_cycles, class_id);
    return true;
}

void
StreamingClusterModel::observe(MetricSeries series)
{
    const std::size_t w = cfg.window ? cfg.window : 1;
    if (ring.size() < w) {
        ring.push_back(std::move(series));
    } else {
        ring[head] = std::move(series);
        head = (head + 1) % w;
    }
    ++seen;
    ++sinceRecluster;
    if (cfg.reclusterEvery != 0 && sinceRecluster >= cfg.reclusterEvery)
        recluster();
}

std::vector<const MetricSeries *>
StreamingClusterModel::windowInOrder() const
{
    std::vector<const MetricSeries *> out;
    out.reserve(ring.size());
    // head is the oldest entry once the ring wrapped; before that the
    // ring is already in arrival order.
    for (std::size_t i = 0; i < ring.size(); ++i)
        out.push_back(&ring[(head + i) % ring.size()]);
    return out;
}

void
StreamingClusterModel::recluster()
{
    sinceRecluster = 0;
    if (ring.size() < cfg.k || ring.empty())
        return;

    const std::vector<const MetricSeries *> window = windowInOrder();

    // CLARA-style sample: the whole window in arrival order when it
    // fits (which is what makes a full-window recluster match the
    // batch path exactly), otherwise a uniform draw without
    // replacement via a partial Fisher-Yates shuffle.
    std::vector<std::size_t> idx(window.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    std::size_t s = window.size();
    if (cfg.sample != 0 && cfg.sample < window.size()) {
        s = cfg.sample < cfg.k ? cfg.k : cfg.sample;
        for (std::size_t i = 0; i < s; ++i) {
            const std::size_t j =
                i + static_cast<std::size_t>(
                        rng.uniformInt(idx.size() - i));
            std::swap(idx[i], idx[j]);
        }
    }

    std::vector<const MetricSeries *> sample(s);
    for (std::size_t i = 0; i < s; ++i)
        sample[i] = window[idx[i]];

    // Over the cascade the clustering is bit-identical to kMedoids
    // over the full DistanceMatrix (the streaming-vs-batch
    // equivalence tests pin this), but most pairwise DPs are pruned
    // by a lower bound instead of computed.
    DistanceCascade dc(sample.data(), s, cfg.asyncPenalty);
    lastClustering = kMedoids(dc, cfg.k, rng);

    meds.clear();
    meds.reserve(lastClustering.medoids.size());
    for (const std::size_t m : lastClustering.medoids)
        meds.push_back(*sample[m]);

    // Envelopes for the per-request scoring cascade. The radius only
    // tunes prune rates; scoring results never depend on it.
    medEnvs.resize(meds.size());
    for (std::size_t i = 0; i < meds.size(); ++i)
        buildEnvelope(meds[i],
                      std::max<std::size_t>(1, meds[i].size() / 8),
                      medEnvs[i]);
    ++reclusters;
}

double
StreamingClusterModel::scoreOf(const MetricSeries &series) const
{
    // Nearest-medoid min through the LB cascade. A medoid is skipped
    // only when a sound lower bound (or the abandoned DP) proves its
    // distance >= the incumbent best, and the incumbent only falls to
    // a strictly smaller exact value — so the score is bit-identical
    // to the plain min over dtwDistance().
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < meds.size(); ++i)
        best = std::min(best, cascadeDtw(series, meds[i],
                                         cfg.asyncPenalty, best,
                                         medEnvs[i]));
    return best;
}

bool
RollingAnomalyScorer::observe(double score)
{
    const double thr = threshold();
    const bool flag = thr > 0.0 && score > cfg.margin * thr;
    scores.add(score);
    if (flag)
        ++flagged;
    return flag;
}

double
RollingAnomalyScorer::threshold() const
{
    // Hold fire until the window has enough history for the quantile
    // to mean something; otherwise everything early looks anomalous.
    if (scores.size() < scores.capacity() / 2 || scores.size() < 8)
        return 0.0;
    return scores.quantile(cfg.quantile);
}

} // namespace rbv::core
