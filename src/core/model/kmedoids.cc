/**
 * @file
 * k-medoids implementation.
 */

#include "core/model/kmedoids.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/model/cascade.hh"

namespace rbv::core {

std::vector<std::size_t>
Clustering::membersOf(std::size_t cluster) const
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < assignment.size(); ++i)
        if (assignment[i] == cluster)
            out.push_back(i);
    return out;
}

template <typename Oracle>
Clustering
kMedoids(const Oracle &dist, std::size_t k, stats::Rng &rng,
         std::size_t max_iter)
{
    RBV_PROF_SCOPE(KMedoids);
    constexpr double Inf = std::numeric_limits<double>::infinity();
    const std::size_t n = dist.size();
    Clustering cl;
    if (n == 0)
        return cl;
    k = std::min(k, n);

    // Greedy max-min seeding: random first medoid, then repeatedly
    // the item farthest from all chosen medoids. The max-min
    // comparison consumes every distance's value, so seeding asks
    // for exact distances — k*n of them, a sliver of the n*(n-1)/2 a
    // bounding oracle saves later.
    std::vector<std::size_t> medoids;
    medoids.push_back(rng.uniformInt(n));
    std::vector<double> min_d(n, Inf);
    while (medoids.size() < k) {
        for (std::size_t i = 0; i < n; ++i)
            min_d[i] = std::min(min_d[i], dist.exact(i, medoids.back()));
        std::size_t far = 0;
        double far_d = -1.0;
        for (std::size_t i = 0; i < n; ++i) {
            if (min_d[i] > far_d) {
                far_d = min_d[i];
                far = i;
            }
        }
        medoids.push_back(far);
    }

    // Nearest-medoid argmin. The winner is decided by strict <, so
    // skipping any candidate with d >= best_d cannot change it — and
    // that is exactly what atMost() proves when it returns false.
    // The winner's distance is exact, so best_d (and with it
    // totalCost) is the same under every oracle, bit for bit.
    auto assignOne = [&](std::size_t i, double &best_d) {
        std::size_t best = 0;
        best_d = Inf;
        for (std::size_t c = 0; c < medoids.size(); ++c) {
            double d;
            if (dist.atMost(i, medoids[c], best_d, d) && d < best_d) {
                best_d = d;
                best = c;
            }
        }
        return best;
    };

    std::vector<std::size_t> assign(n, 0);
    std::vector<std::vector<std::size_t>> members(medoids.size());
    for (std::size_t iter = 0; iter < max_iter; ++iter) {
        for (std::size_t i = 0; i < n; ++i) {
            double best_d;
            assign[i] = assignOne(i, best_d);
        }

        for (auto &m : members)
            m.clear();
        for (std::size_t i = 0; i < n; ++i)
            members[assign[i]].push_back(i);

        // Medoid re-election over explicit member lists, summing in
        // ascending item order, with sum-abandon: a candidate is
        // dropped as soon as its partial sum plus a lower bound on
        // the next term reaches best_cost. Every remaining term is
        // nonnegative and the incumbent only falls to a strictly
        // smaller full sum, so the true winner is never dropped, and
        // best_cost only ever holds fully-summed values.
        bool changed = false;
        for (std::size_t c = 0; c < medoids.size(); ++c) {
            std::size_t best = medoids[c];
            double best_cost = Inf;
            for (const std::size_t i : members[c]) {
                double cost = 0.0;
                bool viable = true;
                for (const std::size_t j : members[c]) {
                    if (cost + dist.lowerBound(i, j) >= best_cost) {
                        viable = false;
                        break;
                    }
                    cost += dist.exact(i, j);
                }
                if (viable && cost < best_cost) {
                    best_cost = cost;
                    best = i;
                }
            }
            if (best != medoids[c]) {
                medoids[c] = best;
                changed = true;
            }
        }
        if (!changed)
            break;
    }

    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double best_d;
        assign[i] = assignOne(i, best_d);
        total += best_d;
    }

    cl.medoids = std::move(medoids);
    cl.assignment = std::move(assign);
    cl.totalCost = total;
    return cl;
}

template Clustering kMedoids(const DistanceMatrix &, std::size_t,
                             stats::Rng &, std::size_t);
template Clustering kMedoids(const DistanceCascade &, std::size_t,
                             stats::Rng &, std::size_t);

double
divergenceFromCentroid(const Clustering &cl,
                       const std::vector<double> &prop)
{
    if (cl.assignment.empty())
        return 0.0;
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < cl.assignment.size(); ++i) {
        const std::size_t medoid = cl.medoids[cl.assignment[i]];
        const double pc = prop[medoid];
        if (pc == 0.0)
            continue;
        sum += std::abs(prop[i] - pc) / std::abs(pc);
        ++count;
    }
    return count ? sum / static_cast<double>(count) : 0.0;
}

} // namespace rbv::core
