/**
 * @file
 * Batch summary statistics: percentiles/quantiles and histograms used
 * to reproduce the paper's distribution plots (Figs. 1, 13).
 */

#ifndef RBV_STATS_SUMMARY_HH
#define RBV_STATS_SUMMARY_HH

#include <cstddef>
#include <string>
#include <vector>

namespace rbv::stats {

/**
 * Compute the p-quantile (p in [0, 1]) of a sample using linear
 * interpolation between order statistics (type-7 quantile, matching
 * the common numpy/R default). Returns 0 for an empty sample.
 *
 * @param values Sample values; copied, selected via nth_element
 *               (O(n) expected, no full sort).
 * @param p      Quantile in [0, 1]; clamped.
 */
double quantile(std::vector<double> values, double p);

/**
 * Compute several quantiles in one sort. Quantiles are clamped to
 * [0, 1]; results align with the input order of @p ps.
 */
std::vector<double> quantiles(std::vector<double> values,
                              const std::vector<double> &ps);

/** Arithmetic mean; 0 for an empty sample. */
double mean(const std::vector<double> &values);

/**
 * Fixed-bin-width histogram over [lo, hi), reproducing the probability
 * histograms of Fig. 1 ("Prob. for w-width bins").
 */
class Histogram
{
  public:
    /**
     * @param lo    Lower bound of the first bin.
     * @param width Bin width (> 0).
     * @param bins  Number of bins.
     */
    Histogram(double lo, double width, std::size_t bins);

    /** Add one observation; out-of-range values land in under/over. */
    void add(double x);

    double binLo(std::size_t i) const { return lo + width * i; }
    double binCenter(std::size_t i) const
    {
        return lo + width * (i + 0.5);
    }

    std::uint64_t count(std::size_t i) const { return counts[i]; }
    std::uint64_t total() const { return totalCount; }
    std::uint64_t underflow() const { return under; }
    std::uint64_t overflow() const { return over; }

    /** Probability mass in bin i (0 if no data). */
    double probability(std::size_t i) const;

    /**
     * Render a compact ASCII view, one row per bin with a bar scaled
     * to the modal bin, for inclusion in bench output.
     *
     * @param barWidth Maximum number of bar characters.
     */
    std::string ascii(std::size_t barWidth = 40) const;

  private:
    double lo;
    double width;
    std::vector<std::uint64_t> counts;
    std::uint64_t under = 0;
    std::uint64_t over = 0;
    std::uint64_t totalCount = 0;
};

} // namespace rbv::stats

#endif // RBV_STATS_SUMMARY_HH
