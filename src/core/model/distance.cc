/**
 * @file
 * Request differencing measures implementation.
 *
 * Hot-path kernels (DTW variants, bit-parallel Levenshtein) run over
 * the per-thread DistanceScratch arena and allocate nothing in steady
 * state. Every optimized kernel is bit-identical to its reference in
 * distance_ref.cc; tests/distance_perf_test.cc enforces that on
 * randomized inputs.
 */

#include "core/model/distance.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "core/check.hh"
#include "core/model/distance_scratch.hh"
#include "core/model/dtw_simd.hh"
#include "stats/summary.hh"
#include "obs/obs.hh"

namespace rbv::core {

DistanceScratch &
threadDistanceScratch()
{
    // One arena per thread (never shared, so there is no cross-thread
    // state here); buffers persist for the thread's lifetime so the
    // kernels below stay allocation-free in steady state.
    thread_local DistanceScratch scratch;
    return scratch;
}

double
l1Distance(const MetricSeries &x, const MetricSeries &y, double p)
{
    const std::size_t m = x.size(), n = y.size();
    const std::size_t common = std::min(m, n);
    double d = 0.0;
    for (std::size_t i = 0; i < common; ++i)
        d += std::abs(x[i] - y[i]);
    d += static_cast<double>(m > n ? m - n : n - m) * p;
    RBV_DCHECK(std::isfinite(d),
               "l1Distance produced a non-finite value");
    return d;
}

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/** min of three doubles; compiles to two branch-free minsd ops. */
inline double
min3(double a, double b, double c)
{
    return std::min(std::min(a, b), c);
}

/**
 * Rolling-row DTW recurrence over flat scratch rows. Identical
 * arithmetic (operation-for-operation) to the historical rolling
 * vector version, so results are bit-identical; only the storage
 * changed. Requires m >= 1 and n >= 1. Retained as the short-series
 * kernel and as the dispatch-equivalence witness for the
 * anti-diagonal kernels in dtw_simd.cc.
 *
 * With Abandon it returns +inf as soon as a whole DP row sits at or
 * above @p cutoff: every warp path crosses every row, so the final
 * value can no longer be smaller.
 */
template <bool Abandon>
double
dtwRolling(const double *x, std::size_t m, const double *y,
           std::size_t n, double async_penalty, double cutoff,
           DistanceScratch &scratch)
{
    auto [prev, cur] = scratch.dtwRowPair(n);

    prev[0] = std::abs(x[0] - y[0]); // initial pointer position
    double row_min = prev[0];
    for (std::size_t j = 1; j < n; ++j) {
        prev[j] = prev[j - 1] + std::abs(x[0] - y[j]) + async_penalty;
        if constexpr (Abandon)
            row_min = std::min(row_min, prev[j]);
    }
    scratch.dtwCells += n;
    if (Abandon && row_min >= cutoff)
        return Inf;

    for (std::size_t i = 1; i < m; ++i) {
        const double xi = x[i];
        row_min = cur[0] = prev[0] + std::abs(xi - y[0]) + async_penalty;
        for (std::size_t j = 1; j < n; ++j) {
            const double best = min3(prev[j - 1],
                                     prev[j] + async_penalty,
                                     cur[j - 1] + async_penalty);
            cur[j] = best + std::abs(xi - y[j]);
            if constexpr (Abandon)
                row_min = std::min(row_min, cur[j]);
        }
        scratch.dtwCells += n;
        if (Abandon && row_min >= cutoff)
            return Inf;
        std::swap(prev, cur);
    }
    return prev[n - 1];
}

/**
 * Series long enough that the anti-diagonal restructuring pays for
 * its wavefront staging. Below this the rolling-row kernel wins and
 * the diagonals are too short for SIMD lanes anyway.
 */
constexpr std::size_t DiagKernelMinLen = 16;

/**
 * DTW with runtime kernel dispatch. All four kernels compute the
 * identical operand set per cell (see dtw_simd.hh), so which one runs
 * is invisible in the result bits — only in the wall clock. A finite
 * @p cutoff abandons with +inf exactly when the last DP row's minimum
 * is >= cutoff, on every kernel alike; the wavefront's abandon test
 * leans on p >= 0, so a negative penalty keeps the rolling kernel.
 */
double
dtwFull(const double *x, std::size_t m, const double *y, std::size_t n,
        double async_penalty, DistanceScratch &scratch,
        double cutoff = Inf)
{
    if (std::min(m, n) >= DiagKernelMinLen &&
        (cutoff == Inf || async_penalty >= 0.0)) {
        if (detail::dtwAvx512Available())
            return detail::dtwDiagAvx512(x, m, y, n, async_penalty,
                                         scratch, cutoff);
        if (detail::dtwAvx2Available())
            return detail::dtwDiagAvx2(x, m, y, n, async_penalty,
                                       scratch, cutoff);
        return detail::dtwDiagScalar(x, m, y, n, async_penalty,
                                     scratch, cutoff);
    }
    if (cutoff == Inf)
        return dtwRolling<false>(x, m, y, n, async_penalty, cutoff,
                                 scratch);
    return dtwRolling<true>(x, m, y, n, async_penalty, cutoff,
                            scratch);
}

} // namespace

double
dtwDistance(const MetricSeries &x, const MetricSeries &y,
            double async_penalty)
{
    RBV_PROF_SCOPE(DtwDistance);
    const std::size_t m = x.size(), n = y.size();
    if (m == 0 || n == 0) {
        // Degenerate: all steps are asynchronous.
        return static_cast<double>(m + n) * async_penalty;
    }
    const double d = dtwFull(x.data(), m, y.data(), n, async_penalty,
                             threadDistanceScratch());
    RBV_DCHECK(std::isfinite(d),
               "dtwDistance produced a non-finite value");
    return d;
}

double
dtwDistanceEarlyAbandon(const MetricSeries &x, const MetricSeries &y,
                        double async_penalty, double cutoff)
{
    RBV_PROF_SCOPE(DtwEarlyAbandon);
    RBV_DCHECK(async_penalty >= 0.0,
               "dtwDistanceEarlyAbandon needs async_penalty >= 0, got "
                   << async_penalty);
    const std::size_t m = x.size(), n = y.size();
    if (m == 0 || n == 0)
        return static_cast<double>(m + n) * async_penalty;

    const double d = dtwFull(x.data(), m, y.data(), n, async_penalty,
                             threadDistanceScratch(), cutoff);
    if (d == Inf)
        RBV_COUNT(ModelDtwEarlyAbandons, 1);
    return d;
}

double
avgMetricDistance(const MetricSeries &x, const MetricSeries &y)
{
    return std::abs(stats::mean(x) - stats::mean(y));
}

namespace {

/**
 * Uniformly subsample a sequence down to at most max_len entries.
 * Returns a view of @p s itself when it is already short enough (no
 * copy), and a view over @p out (grown in the scratch arena)
 * otherwise. Index selection matches the historical copying version
 * exactly.
 */
std::span<const os::Sys>
subsampleView(const std::vector<os::Sys> &s, std::size_t max_len,
              std::vector<os::Sys> &out)
{
    if (s.size() <= max_len)
        return {s.data(), s.size()};
    out.resize(max_len);
    const double stride =
        static_cast<double>(s.size()) / static_cast<double>(max_len);
    for (std::size_t i = 0; i < max_len; ++i) {
        const auto idx = static_cast<std::size_t>(
            static_cast<double>(i) * stride);
        out[i] = s[std::min(idx, s.size() - 1)];
    }
    return {out.data(), max_len};
}

/** Symbols the Myers kernel can pack into one Peq alphabet. */
constexpr std::size_t BitAlphabet = 64;

static_assert(static_cast<std::size_t>(os::NumSys) <= BitAlphabet,
              "the full syscall catalogue must fit the bit-parallel "
              "alphabet; widen BitAlphabet or accept DP fallbacks");

bool
fitsBitAlphabet(std::span<const os::Sys> s)
{
    for (const os::Sys c : s)
        if (static_cast<std::size_t>(c) >= BitAlphabet)
            return false;
    return true;
}

/**
 * One column step of one 64-row block of Myers' bit-parallel edit
 * distance recurrence (Hyyro's block formulation). @p hin is the
 * horizontal delta entering the block from below (-1, 0, +1); the
 * return value is the delta leaving at @p out_bit — bit 63 when the
 * block feeds a successor, or the pattern's last row for the top
 * block, where it is the score delta of this column.
 */
inline int
myersColumnStep(std::uint64_t &pv, std::uint64_t &mv, std::uint64_t eq,
                int hin, unsigned out_bit)
{
    const std::uint64_t hin_neg = hin < 0 ? 1u : 0u;
    const std::uint64_t xv = eq | mv;
    eq |= hin_neg;
    const std::uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    std::uint64_t ph = mv | ~(xh | pv);
    std::uint64_t mh = pv & xh;
    const int hout = static_cast<int>((ph >> out_bit) & 1u) -
                     static_cast<int>((mh >> out_bit) & 1u);
    ph = (ph << 1) | (hin > 0 ? 1u : 0u);
    mh = (mh << 1) | hin_neg;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
    return hout;
}

/**
 * Myers bit-parallel Levenshtein over 64-row blocks of the pattern
 * @p x. O(ceil(m/64) * n) word ops; exact (the DP and the
 * bit-vector recurrence compute the same integer). Requires
 * m >= 1, n >= 1 and all symbols < BitAlphabet.
 */
std::int64_t
levBitParallel(std::span<const os::Sys> x, std::span<const os::Sys> y,
               DistanceScratch &scratch)
{
    const std::size_t m = x.size(), n = y.size();
    const std::size_t blocks = (m + 63) / 64;

    // Peq[sym * blocks + b]: bit i of block b set iff x row matches.
    scratch.peq.assign(BitAlphabet * blocks, 0);
    for (std::size_t i = 0; i < m; ++i)
        scratch.peq[static_cast<std::size_t>(x[i]) * blocks + i / 64] |=
            1ULL << (i % 64);
    scratch.myersPv.assign(blocks, ~0ULL);
    scratch.myersMv.assign(blocks, 0);

    std::uint64_t *pv = scratch.myersPv.data();
    std::uint64_t *mv = scratch.myersMv.data();
    const unsigned last_bit = static_cast<unsigned>((m - 1) % 64);

    // score tracks D(m, j); the boundary D(0, j) = j enters block 0
    // as hin = +1 each column, D(i, 0) = i is the all-ones pv init.
    std::int64_t score = static_cast<std::int64_t>(m);
    for (std::size_t j = 0; j < n; ++j) {
        const std::uint64_t *eq =
            scratch.peq.data() +
            static_cast<std::size_t>(y[j]) * blocks;
        int h = 1;
        for (std::size_t b = 0; b + 1 < blocks; ++b)
            h = myersColumnStep(pv[b], mv[b], eq[b], h, 63);
        score += myersColumnStep(pv[blocks - 1], mv[blocks - 1],
                                 eq[blocks - 1], h, last_bit);
    }
    return score;
}

/** Scalar DP fallback over scratch rows (wide-alphabet path). */
std::uint32_t
levScalarDp(std::span<const os::Sys> x, std::span<const os::Sys> y,
            DistanceScratch &scratch)
{
    const std::size_t m = x.size(), n = y.size();
    auto [prev, cur] = scratch.levRowPair(n + 1);
    for (std::size_t j = 0; j <= n; ++j)
        prev[j] = static_cast<std::uint32_t>(j);

    for (std::size_t i = 1; i <= m; ++i) {
        cur[0] = static_cast<std::uint32_t>(i);
        for (std::size_t j = 1; j <= n; ++j) {
            const std::uint32_t sub =
                prev[j - 1] + (x[i - 1] == y[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[n];
}

} // namespace

double
levenshteinDistance(const std::vector<os::Sys> &a,
                    const std::vector<os::Sys> &b, std::size_t max_len)
{
    RBV_PROF_SCOPE(LevenshteinDistance);
    DistanceScratch &scratch = threadDistanceScratch();
    const std::span<const os::Sys> x =
        subsampleView(a, max_len, scratch.subA);
    const std::span<const os::Sys> y =
        subsampleView(b, max_len, scratch.subB);
    const std::size_t m = x.size(), n = y.size();
    if (m == 0)
        return static_cast<double>(n);
    if (n == 0)
        return static_cast<double>(m);

    if (fitsBitAlphabet(x) && fitsBitAlphabet(y)) {
        RBV_COUNT(ModelLevBitParallel, 1);
        // The shorter sequence is the pattern: fewest 64-row blocks.
        // Edit distance is symmetric and integer-exact, so the
        // orientation cannot change the result.
        const std::int64_t d =
            m <= n ? levBitParallel(x, y, scratch)
                   : levBitParallel(y, x, scratch);
        return static_cast<double>(d);
    }
    RBV_COUNT(ModelLevDpFallbacks, 1);
    return static_cast<double>(levScalarDp(x, y, scratch));
}

double
lengthPenalty(const std::vector<MetricSeries> &series, stats::Rng &rng,
              double q, std::size_t pairs)
{
    RBV_DCHECK(q >= 0.0 && q <= 1.0,
               "lengthPenalty quantile q=" << q << " outside [0, 1]");

    // Flatten to (series, index) sampling without copying. Hoisting
    // (data, size) per source means repeated draws of the same
    // series pay one table lookup, never a re-derivation of the
    // series bounds.
    struct Source
    {
        const double *data;
        std::uint64_t size;
    };
    std::vector<Source> nonempty;
    nonempty.reserve(series.size());
    for (const auto &s : series)
        if (!s.empty())
            nonempty.push_back({s.data(), s.size()});
    if (pairs == 0 || nonempty.empty())
        return 0.0;

    std::vector<double> diffs;
    diffs.reserve(pairs);
    const std::uint64_t n_sources = nonempty.size();
    for (std::size_t k = 0; k < pairs; ++k) {
        const Source &s1 = nonempty[rng.uniformInt(n_sources)];
        const Source &s2 = nonempty[rng.uniformInt(n_sources)];
        const double v1 = s1.data[rng.uniformInt(s1.size)];
        const double v2 = s2.data[rng.uniformInt(s2.size)];
        diffs.push_back(std::abs(v1 - v2));
    }
    return stats::quantile(std::move(diffs), q);
}

const char *
measureName(Measure m)
{
    switch (m) {
      case Measure::LevenshteinSyscalls:
        return "Levenshtein(syscalls)";
      case Measure::AvgMetric:
        return "Avg metric diff";
      case Measure::L1:
        return "L1 distance";
      case Measure::Dtw:
        return "DTW";
      case Measure::DtwAsyncPenalty:
        return "DTW+async penalty";
    }
    return "?";
}

} // namespace rbv::core
