/**
 * @file
 * Lower-bound cascade implementation.
 */

#include "core/model/cascade.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.hh"
#include "core/model/distance.hh"
#include "obs/obs.hh"

namespace rbv::core {

void
buildEnvelope(const MetricSeries &s, std::size_t radius,
              SeriesEnvelope &out)
{
    const std::size_t n = s.size();
    out.radius = radius;
    out.lower.resize(n);
    out.upper.resize(n);
    if (n == 0)
        return;

    // Monotonic deque over the sliding window [c-r, c+r]: indices
    // enter in order, dominated values are popped from the back, and
    // stale indices fall off the front, so each sweep is O(n)
    // amortized. One index buffer serves both sweeps.
    std::vector<std::size_t> dq;
    dq.reserve(n);
    auto sweep = [&](bool is_max, std::vector<double> &dst) {
        dq.clear();
        std::size_t head = 0;
        std::size_t next = 0;
        for (std::size_t c = 0; c < n; ++c) {
            const std::size_t hi = std::min(n - 1, c + radius);
            for (; next <= hi; ++next) {
                while (dq.size() > head &&
                       (is_max ? s[dq.back()] <= s[next]
                               : s[dq.back()] >= s[next]))
                    dq.pop_back();
                dq.push_back(next);
            }
            const std::size_t lo = c > radius ? c - radius : 0;
            while (dq[head] < lo)
                ++head;
            dst[c] = s[dq[head]];
        }
    };
    sweep(true, out.upper);
    sweep(false, out.lower);
}

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/**
 * Conservative deflation applied to every lower bound before it is
 * compared against a cutoff. The bounds are sound in real arithmetic,
 * but their summation order differs from the DP's, so a computed
 * bound can exceed the computed exact distance by a few ULPs on tight
 * inputs; the margin absorbs relative rounding error many orders of
 * magnitude beyond what the series lengths here can accumulate. It
 * can only cost an extra DP run, never a wrong prune.
 */
constexpr double LbPruneMargin = 0.999;

/**
 * The corner cells every warp path pays: (0,0) always, (m-1,n-1)
 * whenever it is a distinct cell. Shared by both bounds so
 * LB_Kim <= LB_Keogh is structural, never a rounding accident.
 */
inline double
cornerCost(const MetricSeries &x, const MetricSeries &y)
{
    const double c0 = std::abs(x.front() - y.front());
    return (x.size() > 1 || y.size() > 1)
               ? c0 + std::abs(x.back() - y.back())
               : c0;
}

/** O(1) corner + length-mismatch bound; exact on empty inputs. */
double
lbKim(const MetricSeries &x, const MetricSeries &y,
      double async_penalty)
{
    const std::size_t m = x.size(), n = y.size();
    if (m == 0 || n == 0)
        return static_cast<double>(m + n) * async_penalty;
    const std::size_t diff = m > n ? m - n : n - m;
    return cornerCost(x, y) +
           static_cast<double>(diff) * async_penalty;
}

/**
 * O(|x|) envelope bound of x against @p env_y (the envelope of y).
 * Sound for any radius; identical to lbKim() below r = |m-n|.
 */
double
lbKeogh(const MetricSeries &x, const MetricSeries &y,
        const SeriesEnvelope &env_y, double async_penalty)
{
    const std::size_t m = x.size(), n = y.size();
    if (m == 0 || n == 0)
        return static_cast<double>(m + n) * async_penalty;

    const std::size_t diff = m > n ? m - n : n - m;
    const std::size_t r = env_y.radius;
    const double corners = cornerCost(x, y);
    const double mismatch =
        static_cast<double>(diff) * async_penalty;

    // The in-band row argument needs the band to admit a path at all
    // (r >= |m-n|); below that, fall back to the corner bound.
    if (r < diff)
        return corners + mismatch;

    // In-band case: every interior row i is visited at some column
    // within [i-r, i+r], costing at least its distance outside the
    // envelope there. Clamping the envelope center to n-1 only
    // widens the window (it is a superset of [i-r, i+r] ∩ [0, n-1]
    // for i >= n-1), so the bound stays sound for m > n.
    double sum_e = 0.0;
    for (std::size_t i = 1; i + 1 < m; ++i) {
        const std::size_t c = std::min(i, n - 1);
        const double xi = x[i];
        if (xi > env_y.upper[c])
            sum_e += xi - env_y.upper[c];
        else if (xi < env_y.lower[c])
            sum_e += env_y.lower[c] - xi;
    }
    const double in_band = mismatch + sum_e;

    // No cell lies outside a band that spans the whole grid; only
    // then is the in-band case the only case.
    if (r >= std::max(m, n) - 1)
        return corners + in_band;

    // Exit case: an asynchronous step moves the offset i-j by one, a
    // synchronous step not at all. Going from offset 0 out to
    // |i-j| = r+1 takes r+1 asynchronous steps, and coming back to
    // the end offset m-n (|m-n| <= r here) at least r+1-|m-n| more.
    const double exit_cost =
        (2.0 * static_cast<double>(r + 1) -
         static_cast<double>(diff)) *
        async_penalty;
    return corners + std::min(in_band, exit_cost);
}

} // namespace

double
cascadeDtw(const MetricSeries &x, const MetricSeries &y,
           double async_penalty, double cutoff,
           const SeriesEnvelope &env_y, const SeriesEnvelope *env_x,
           CascadeStats *tallies)
{
    if (std::isfinite(cutoff)) {
        if (lbKim(x, y, async_penalty) * LbPruneMargin >= cutoff) {
            RBV_COUNT(ModelLbKimPrunes, 1);
            if (tallies)
                ++tallies->kimPrunes;
            return Inf;
        }
        // Keep the y-against-x pass: on the serve reclusters it makes
        // most of the Keogh prunes (serve-tpcc seed 1: 349, 17 without).
        if (lbKeogh(x, y, env_y, async_penalty) * LbPruneMargin >=
                cutoff ||
            (env_x && lbKeogh(y, x, *env_x, async_penalty) *
                              LbPruneMargin >=
                          cutoff)) {
            RBV_COUNT(ModelLbKeoghPrunes, 1);
            if (tallies)
                ++tallies->keoghPrunes;
            return Inf;
        }
    }
    RBV_COUNT(ModelCascadeDpRuns, 1);
    const double d =
        dtwDistanceEarlyAbandon(x, y, async_penalty, cutoff);
    if (tallies) {
        ++tallies->dpRuns;
        if (std::isinf(d))
            ++tallies->eaAbandons;
    }
    return d;
}

DistanceCascade::DistanceCascade(const MetricSeries *const *items_,
                                 std::size_t n, double async_penalty)
    : items(items_), count(n), asyncPenalty(async_penalty),
      envelopes(n),
      memo(n < 2 ? 0 : n * (n - 1) / 2,
           std::numeric_limits<double>::quiet_NaN())
{
    // One radius for the whole set: wide enough that every pair's
    // length mismatch fits inside the band (so the envelope arm of
    // LB_Keogh applies everywhere), plus slack for genuine warping.
    // The radius only tunes bound tightness, never soundness.
    std::size_t max_len = 0, min_len = ~std::size_t{0};
    for (std::size_t i = 0; i < n; ++i) {
        max_len = std::max(max_len, items[i]->size());
        min_len = std::min(min_len, items[i]->size());
    }
    if (n == 0)
        min_len = 0;
    const std::size_t radius =
        (max_len - min_len) + std::max<std::size_t>(1, max_len / 16);
    for (std::size_t i = 0; i < n; ++i)
        buildEnvelope(*items[i], radius, envelopes[i]);
}

std::size_t
DistanceCascade::packedIndex(std::size_t i, std::size_t j) const
{
    if (j < i)
        std::swap(i, j);
    return i * (count - 1) - i * (i - 1) / 2 + (j - i - 1);
}

double
DistanceCascade::exact(std::size_t i, std::size_t j) const
{
    ++tallies.lookups;
    if (i == j)
        return 0.0;
    double &cell = memo[packedIndex(i, j)];
    if (std::isnan(cell)) {
        ++tallies.dpRuns;
        RBV_COUNT(ModelCascadeDpRuns, 1);
        cell = dtwDistance(*items[i], *items[j], asyncPenalty);
    } else {
        ++tallies.memoHits;
    }
    return cell;
}

bool
DistanceCascade::atMost(std::size_t i, std::size_t j, double cutoff,
                        double &d) const
{
    ++tallies.lookups;
    if (i == j) {
        d = 0.0;
        return true;
    }
    double &cell = memo[packedIndex(i, j)];
    if (std::isnan(cell)) {
        const double raw =
            cascadeDtw(*items[i], *items[j], asyncPenalty, cutoff,
                       envelopes[j], &envelopes[i], &tallies);
        // An infinite result proves d >= cutoff but is not an exact
        // value: leave the memo cell unknown so a later query with a
        // looser cutoff still gets the exact distance.
        if (std::isinf(raw))
            return false;
        cell = raw; // a finite result is the exact DP value
    } else {
        ++tallies.memoHits;
    }
    if (cell >= cutoff)
        return false;
    d = cell;
    return true;
}

double
DistanceCascade::lowerBound(std::size_t i, std::size_t j) const
{
    if (i == j)
        return 0.0;
    const double cell = memo[packedIndex(i, j)];
    if (!std::isnan(cell))
        return cell;
    // Deflated like every prune comparison: sum-abandon adds this to
    // a running cost and must never overshoot what the exact term
    // would have produced.
    return lbKim(*items[i], *items[j], asyncPenalty) * LbPruneMargin;
}

} // namespace rbv::core
