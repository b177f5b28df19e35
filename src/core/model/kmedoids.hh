/**
 * @file
 * k-medoids request classification (Sec. 4.2).
 *
 * The mean of a set of request variation patterns is not well
 * defined, so the paper replaces the k-means cluster mean with a
 * cluster centroid request: the member whose summed distance to all
 * other members is minimal. This module implements that algorithm
 * once, over any distance oracle: a precomputed pairwise distance
 * matrix here, the lower-bound cascade in cascade.hh.
 */

#ifndef RBV_CORE_MODEL_KMEDOIDS_HH
#define RBV_CORE_MODEL_KMEDOIDS_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/parallel.hh"
#include "obs/obs.hh"
#include "stats/rng.hh"

namespace rbv::core {

/**
 * Symmetric pairwise distance matrix with packed upper-triangular
 * storage: n*(n-1)/2 doubles instead of n*n, the diagonal implicit
 * (always 0), and each row's cells contiguous so the parallel build
 * writes disjoint cache-friendly ranges.
 */
class DistanceMatrix
{
  public:
    explicit DistanceMatrix(std::size_t n)
        : n(n), d(n < 2 ? 0 : n * (n - 1) / 2, 0.0)
    {
    }

    /**
     * Build by evaluating dist(i, j) for all i < j. The callable is
     * invoked directly (templated, no std::function hop on the cell
     * path). Rows are filled by parallelFor() on @p jobs threads;
     * with jobs != 1, dist must be safe to call from multiple threads
     * and pure in (i, j), which makes the result byte-identical at any
     * job count (each cell is computed exactly once, by exactly one
     * thread, from (i, j) alone).
     */
    template <typename Fn>
    static DistanceMatrix
    build(std::size_t n, Fn &&dist, int jobs = 1)
    {
        RBV_PROF_SCOPE(DistanceMatrixBuild);
        DistanceMatrix dm(n);
        if (n < 2)
            return dm;
        RBV_COUNT(ModelDistanceCells,
                  static_cast<std::uint64_t>(n) * (n - 1) / 2);
        parallelFor(n - 1, jobs,
                    [&](std::size_t i) { dm.fillRow(i, dist); });
        return dm;
    }

    std::size_t size() const { return n; }

    double
    at(std::size_t i, std::size_t j) const
    {
        return i == j ? 0.0 : d[packedIndex(i, j)];
    }

    void
    set(std::size_t i, std::size_t j, double v)
    {
        if (i != j)
            d[packedIndex(i, j)] = v;
    }

    /** @name Distance-oracle queries for kMedoids(), all exact. */
    /// @{
    double exact(std::size_t i, std::size_t j) const { return at(i, j); }

    bool
    atMost(std::size_t i, std::size_t j, double cutoff, double &out) const
    {
        const double v = at(i, j);
        if (v >= cutoff)
            return false;
        out = v;
        return true;
    }

    double lowerBound(std::size_t i, std::size_t j) const { return at(i, j); }
    /// @}

    /** The packed upper triangle (row-major, row i = columns > i). */
    const std::vector<double> &packed() const { return d; }

  private:
    template <typename Fn>
    void
    fillRow(std::size_t i, Fn &dist)
    {
        double *row = d.data() + rowOffset(i);
        for (std::size_t j = i + 1; j < n; ++j)
            row[j - i - 1] = dist(i, j);
    }

    /** First cell of packed row i (valid for i < n-1). */
    std::size_t
    rowOffset(std::size_t i) const
    {
        return i * (n - 1) - i * (i - 1) / 2;
    }

    std::size_t
    packedIndex(std::size_t i, std::size_t j) const
    {
        if (j < i)
            std::swap(i, j);
        return rowOffset(i) + (j - i - 1);
    }

    std::size_t n;
    std::vector<double> d;
};

/** k-medoids clustering result. */
struct Clustering
{
    /** Medoid item index of every cluster. */
    std::vector<std::size_t> medoids;

    /** Cluster assignment of every item. */
    std::vector<std::size_t> assignment;

    /** Sum over items of distance to their medoid. */
    double totalCost = 0.0;

    /** Members of one cluster. */
    std::vector<std::size_t> membersOf(std::size_t cluster) const;
};

/**
 * Run k-medoids (Voronoi iteration / PAM-lite) over a distance
 * oracle: greedy max-min seeding, then alternate (a) assign each item
 * to its nearest medoid and (b) re-elect each cluster's medoid as the
 * member minimizing summed intra-cluster distance, until stable. The
 * re-election step walks per-cluster member lists — O(sum |c|^2)
 * total instead of O(k * n^2).
 *
 * The oracle answers four const queries over items 0 .. size()-1:
 *  - size(): the item count;
 *  - exact(i, j): the distance;
 *  - atMost(i, j, cutoff, d): false only when d(i, j) >= cutoff is
 *    proven, otherwise true with the exact distance in d;
 *  - lowerBound(i, j): never above exact(i, j).
 * Every decision is a strict-< comparison that a proven
 * d >= cutoff cannot flip, and every sum adds exact values in the
 * same order, so the clustering is bit-identical for any oracle over
 * the same distances. The function is explicitly instantiated for
 * DistanceMatrix (every query answered from the matrix) and
 * DistanceCascade (cascade.hh: lower bounds skip most DPs).
 *
 * @param dist     Distance oracle.
 * @param k        Number of clusters (clamped to the item count).
 * @param rng      Seeding randomness (first medoid).
 * @param max_iter Iteration cap.
 */
template <typename Oracle>
Clustering kMedoids(const Oracle &dist, std::size_t k, stats::Rng &rng,
                    std::size_t max_iter = 50);

extern template Clustering kMedoids(const DistanceMatrix &,
                                    std::size_t, stats::Rng &,
                                    std::size_t);

/**
 * Classification quality per the paper's Fig. 7: each request's
 * divergence from its cluster centroid on a scalar property,
 * |prop_r - prop_c| / prop_c, averaged over all requests.
 *
 * @param cl   Clustering over the items.
 * @param prop Scalar property of every item (CPU time, peak CPI...).
 */
double divergenceFromCentroid(const Clustering &cl,
                              const std::vector<double> &prop);

} // namespace rbv::core

#endif // RBV_CORE_MODEL_KMEDOIDS_HH
