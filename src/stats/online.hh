/**
 * @file
 * Online (streaming) statistics: Welford mean/variance, weighted
 * coefficient of variation (paper Eq. 1), weighted root mean square
 * error (paper Eq. 7), and the windowed/decaying variants backing the
 * serving mode's rolling scores (EWMA CoV, sliding quantiles).
 */

#ifndef RBV_STATS_ONLINE_HH
#define RBV_STATS_ONLINE_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rbv::stats {

/**
 * Welford online mean / variance accumulator.
 *
 * Used, among other places, to maintain the per-system-call-name CPI
 * change statistics of Section 3.2 (Table 2) in a single pass.
 */
class OnlineMeanVar
{
  public:
    /** Add one observation. */
    void
    add(double x)
    {
        ++n;
        const double delta = x - mu;
        mu += delta / static_cast<double>(n);
        m2 += delta * (x - mu);
    }

    std::size_t count() const { return n; }
    double mean() const { return n ? mu : 0.0; }

    /** Population variance (n denominator). */
    double
    variance() const
    {
        return n ? m2 / static_cast<double>(n) : 0.0;
    }

    /** Sample variance (n-1 denominator); 0 for fewer than 2 points. */
    double
    sampleVariance() const
    {
        return n > 1 ? m2 / static_cast<double>(n - 1) : 0.0;
    }

    double stddev() const { return std::sqrt(variance()); }
    double sampleStddev() const { return std::sqrt(sampleVariance()); }

    /** Merge another accumulator into this one. */
    void
    merge(const OnlineMeanVar &other)
    {
        if (other.n == 0)
            return;
        if (n == 0) {
            *this = other;
            return;
        }
        const double delta = other.mu - mu;
        const std::size_t total = n + other.n;
        mu += delta * static_cast<double>(other.n) /
              static_cast<double>(total);
        m2 += other.m2 + delta * delta *
              static_cast<double>(n) * static_cast<double>(other.n) /
              static_cast<double>(total);
        n = total;
    }

  private:
    std::size_t n = 0;
    double mu = 0.0;
    double m2 = 0.0;
};

/**
 * Weighted coefficient of variation as defined by the paper's Eq. 1:
 *
 *   CoV = sqrt( sum_i t_i (x_i - xbar)^2 / sum_i t_i ) / xbar
 *
 * where xbar is the overall metric value for the whole execution,
 * supplied by the caller (it is the ratio of event totals, not the
 * weighted mean of the x_i, although the two coincide when the weights
 * are the denominators of the x_i ratios).
 */
class WeightedCov
{
  public:
    /** Add one execution period of weight (length) t and metric x. */
    void
    add(double t, double x)
    {
        sumT += t;
        sumTX += t * x;
        sumTXX += t * x * x;
    }

    /** Weighted mean of the metric values. */
    double
    weightedMean() const
    {
        return sumT > 0.0 ? sumTX / sumT : 0.0;
    }

    /**
     * Coefficient of variation around the given overall value xbar.
     * Returns 0 when no data or xbar == 0.
     */
    double
    cov(double xbar) const
    {
        if (sumT <= 0.0 || xbar == 0.0)
            return 0.0;
        // E_w[(x - xbar)^2] = E_w[x^2] - 2 xbar E_w[x] + xbar^2
        const double ex = sumTX / sumT;
        const double exx = sumTXX / sumT;
        double var = exx - 2.0 * xbar * ex + xbar * xbar;
        if (var < 0.0)
            var = 0.0;
        return std::sqrt(var) / xbar;
    }

    /** CoV around the weighted mean. */
    double cov() const { return cov(weightedMean()); }

  private:
    double sumT = 0.0;
    double sumTX = 0.0;
    double sumTXX = 0.0;
};

/**
 * Weighted root mean square error, paper Eq. 7:
 *
 *   RMSE = sqrt( sum_i t_i (x_i - xhat_i)^2 / sum_i t_i )
 */
class WeightedRmse
{
  public:
    /** Add one period with actual value x and predicted value xhat. */
    void
    add(double t, double x, double xhat)
    {
        const double e = x - xhat;
        sumT += t;
        sumTE2 += t * e * e;
    }

    double
    rmse() const
    {
        return sumT > 0.0 ? std::sqrt(sumTE2 / sumT) : 0.0;
    }

  private:
    double sumT = 0.0;
    double sumTE2 = 0.0;
};

/**
 * Exponentially weighted moving average with bias-corrected warmup.
 *
 * value() divides the raw accumulator by (1 - (1-alpha)^n) so the
 * estimate is unbiased from the first observation instead of starting
 * at zero; after ~3/alpha observations the correction vanishes.
 */
class Ewma
{
  public:
    explicit Ewma(double alpha_ = 0.05) : alpha(alpha_) {}

    void
    add(double x)
    {
        raw = (1.0 - alpha) * raw + alpha * x;
        weight = (1.0 - alpha) * weight + alpha;
        ++n;
    }

    std::size_t count() const { return n; }

    double
    value() const
    {
        return weight > 0.0 ? raw / weight : 0.0;
    }

  private:
    double alpha;
    double raw = 0.0;
    double weight = 0.0;
    std::size_t n = 0;
};

/**
 * Exponentially decaying mean / variance, the decaying analogue of
 * OnlineMeanVar. Backs the serving mode's rolling CoV (the decaying
 * form of the paper's Eq. 1): recent behavior dominates, old requests
 * fade at rate (1 - alpha) per observation, and state is O(1).
 */
class EwmaMeanVar
{
  public:
    explicit EwmaMeanVar(double alpha_ = 0.05)
        : meanAcc(alpha_), sqAcc(alpha_)
    {
    }

    void
    add(double x)
    {
        meanAcc.add(x);
        sqAcc.add(x * x);
    }

    std::size_t count() const { return meanAcc.count(); }
    double mean() const { return meanAcc.value(); }

    double
    variance() const
    {
        const double mu = meanAcc.value();
        double var = sqAcc.value() - mu * mu;
        return var > 0.0 ? var : 0.0;
    }

    double stddev() const { return std::sqrt(variance()); }

    /** Decaying coefficient of variation; 0 until the mean is nonzero. */
    double
    cov() const
    {
        const double mu = mean();
        return mu != 0.0 ? stddev() / mu : 0.0;
    }

  private:
    Ewma meanAcc;
    Ewma sqAcc;
};

/**
 * Exact quantiles over a sliding window of the last `capacity`
 * observations. A ring buffer holds the window in arrival order and a
 * sorted copy beside it holds the same values in order, so add() is
 * one binary search and one shift of the values between the evicted
 * and the added one, and quantile() is a read. Memory is bounded by
 * twice the window size and results are deterministic (no sketch
 * error), which keeps serve checkpoints byte-identical across runs.
 * Observations must not be NaN, which has no place in an order.
 */
class SlidingQuantile
{
  public:
    explicit SlidingQuantile(std::size_t capacity_ = 1024)
        : cap(capacity_ ? capacity_ : 1)
    {
        ring.reserve(cap);
        sorted.reserve(cap);
    }

    void
    add(double x)
    {
        ++total;
        const auto in = std::lower_bound(sorted.begin(), sorted.end(), x);
        if (ring.size() < cap) {
            ring.push_back(x);
            sorted.insert(in, x);
            return;
        }
        const double old = ring[head];
        ring[head] = x;
        head = (head + 1) % cap;
        // Overwrite one copy of the evicted value, moving the values
        // that lie between it and x over by one.
        const auto out = std::lower_bound(sorted.begin(), sorted.end(), old);
        if (in > out) {
            std::move(out + 1, in, out);
            *(in - 1) = x;
        } else {
            std::move_backward(in, out, out + 1);
            *in = x;
        }
    }

    /** Observations currently in the window. */
    std::size_t size() const { return ring.size(); }
    /** Observations ever added. */
    std::size_t count() const { return total; }
    std::size_t capacity() const { return cap; }

    /**
     * Quantile q in [0, 1] over the current window (nearest-rank on
     * the lower side); 0 when the window is empty.
     */
    double
    quantile(double q) const
    {
        if (sorted.empty())
            return 0.0;
        const double clamped = std::clamp(q, 0.0, 1.0);
        return sorted[static_cast<std::size_t>(
            clamped * static_cast<double>(sorted.size() - 1))];
    }

    double median() const { return quantile(0.5); }

  private:
    std::size_t cap;
    /** The window in arrival order; head is its oldest value. */
    std::vector<double> ring;
    std::size_t head = 0;
    /** The window's values in ascending order. */
    std::vector<double> sorted;
    std::size_t total = 0;
};

} // namespace rbv::stats

#endif // RBV_STATS_ONLINE_HH
