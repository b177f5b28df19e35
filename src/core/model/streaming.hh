/**
 * @file
 * Streaming model cores for the serving mode.
 *
 * The paper's identification and classification machinery is online
 * by design (Sec. 4.4's signature matching, Sec. 5's per-quantum
 * predictors); this header supplies the bounded-memory streaming
 * versions the `rbv serve` pipeline runs on:
 *
 *  - StreamingSignatureBank: reservoir-sampled online admission into
 *    a fixed-capacity SignatureBank;
 *  - StreamingClusterModel: CLARA-style sampled k-medoids re-cluster
 *    over a sliding window of recent request series, run over the
 *    lower-bound DistanceCascade of the sample;
 *  - RollingAnomalyScorer: per-request nearest-medoid scores with a
 *    sliding-quantile threshold.
 *
 * Every component's state is bounded by its configuration, never by
 * the stream length, and every decision is driven by an explicit Rng,
 * so a fixed seed reproduces a serving run bit for bit.
 */

#ifndef RBV_CORE_MODEL_STREAMING_HH
#define RBV_CORE_MODEL_STREAMING_HH

#include <cstddef>
#include <vector>

#include "core/model/cascade.hh"
#include "core/model/kmedoids.hh"
#include "core/model/signature.hh"
#include "core/timeline.hh"
#include "stats/online.hh"
#include "stats/rng.hh"

namespace rbv::core {

/**
 * Online signature admission with bounded memory: the first
 * `capacity` completed requests fill the bank, after which request t
 * replaces a random entry with probability capacity/t (reservoir
 * sampling, Algorithm R). The bank therefore stays a uniform sample
 * of the whole stream while identification remains O(capacity).
 */
class StreamingSignatureBank
{
  public:
    StreamingSignatureBank(double bin_ins, std::size_t capacity,
                           stats::Rng rng_)
        : bankImpl(bin_ins), cap(capacity ? capacity : 1), rng(rng_)
    {
    }

    /**
     * Offer a completed request's signature to the reservoir.
     * @return True if the signature entered the bank.
     */
    bool offer(MetricSeries series, double cpu_cycles, int class_id);

    /** Signatures offered so far (admitted or not). */
    std::size_t offered() const { return seen; }
    std::size_t capacity() const { return cap; }

    const SignatureBank &bank() const { return bankImpl; }

    /** Identify a running request's partial series (Sec. 4.4). */
    SignatureBank::Identification
    identify(const MetricSeries &partial, double floor = 0.0) const
    {
        return bankImpl.identifyWithConfidence(partial, floor);
    }

  private:
    SignatureBank bankImpl;
    std::size_t cap;
    stats::Rng rng;
    std::size_t seen = 0;
};

/**
 * Bounded-memory online k-medoids: a sliding window of the most
 * recent request series, periodically re-clustered CLARA-style on a
 * uniform sample of the window (kMedoids() over a DistanceCascade of
 * the sample, the same clustering the batch benches get). Medoid
 * series are copied out, so they stay valid as the window slides.
 *
 * With window and sample at least the stream length, a final
 * recluster() gives exactly the clustering of the batch
 * DistanceMatrix + kMedoids run over all series in arrival order —
 * the equivalence the streaming-vs-batch tests pin down.
 */
class StreamingClusterModel
{
  public:
    struct Config
    {
        std::size_t window = 512;  ///< Series retained.
        std::size_t sample = 64;   ///< Series per re-cluster.
        std::size_t k = 4;         ///< Clusters.
        double asyncPenalty = 0.0; ///< DTW asynchrony penalty.
        /** Re-cluster after this many new series (0 = manual only). */
        std::size_t reclusterEvery = 256;
    };

    StreamingClusterModel(Config cfg_, stats::Rng rng_)
        : cfg(cfg_), rng(rng_)
    {
        ring.reserve(cfg.window ? cfg.window : 1);
    }

    /** Add one completed request's series to the window. */
    void observe(MetricSeries series);

    /**
     * Re-cluster now over a uniform sample of the window (the whole
     * window, in arrival order, when sample >= window occupancy).
     * No-op while the window holds fewer than k series.
     */
    void recluster();

    /** Medoid series of the last recluster (empty before the first). */
    const std::vector<MetricSeries> &medoids() const { return meds; }

    /** Clustering of the last recluster's sample. */
    const Clustering &clustering() const { return lastClustering; }

    /** DTW distance to the nearest medoid (infinity before any). */
    double scoreOf(const MetricSeries &series) const;

    std::size_t observedCount() const { return seen; }
    std::size_t windowSize() const { return ring.size(); }
    std::size_t reclusterCount() const { return reclusters; }

  private:
    /** Window contents in arrival order (oldest first). */
    std::vector<const MetricSeries *> windowInOrder() const;

    Config cfg;
    stats::Rng rng;

    std::vector<MetricSeries> ring; ///< Ring buffer of the window.
    std::size_t head = 0;           ///< Next overwrite position.
    std::size_t seen = 0;
    std::size_t sinceRecluster = 0;
    std::size_t reclusters = 0;

    std::vector<MetricSeries> meds;
    /** Envelope per medoid, for the scoring-path LB cascade. */
    std::vector<SeriesEnvelope> medEnvs;
    Clustering lastClustering;
};

/**
 * Rolling per-request anomaly scores: each completed request's
 * distance to the nearest cluster medoid, tracked with an exact
 * sliding quantile. A request is flagged when
 * its score exceeds the current quantile threshold by a margin —
 * both the threshold and the flag depend only on the last `window`
 * scores, so the scorer never grows with the stream.
 */
class RollingAnomalyScorer
{
  public:
    struct Config
    {
        std::size_t window = 1024; ///< Scores in the quantile window.
        double quantile = 0.99;    ///< Threshold quantile.
        double margin = 1.0;       ///< Flag when score > margin * q.
    };

    explicit RollingAnomalyScorer(Config cfg_)
        : cfg(cfg_), scores(cfg.window)
    {
    }

    /**
     * Record one score.
     * @return True when the score crosses the rolling threshold
     *         (always false for the first few observations).
     */
    bool observe(double score);

    /** Current flag threshold (0 until the window warms up). */
    double threshold() const;

    std::size_t observedCount() const { return scores.count(); }
    std::size_t flaggedCount() const { return flagged; }

  private:
    Config cfg;
    stats::SlidingQuantile scores;
    std::size_t flagged = 0;
};

} // namespace rbv::core

#endif // RBV_CORE_MODEL_STREAMING_HH
