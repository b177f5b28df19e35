/**
 * @file
 * Anti-diagonal DTW kernel implementations.
 *
 * Wavefront layout: diagonal d holds cells (i, d-i) for
 * i in [max(0, d-n+1), min(d, m-1)]. Each cell is stored at buffer
 * index i+1 in a row of length m+2; slot 0 is a permanent +inf wall
 * (it stands for every j = -1 / i = -1 neighbor), and one +inf
 * sentinel past each end of a diagonal's written range covers the
 * out-of-range reads of the two successor diagonals (the range ends
 * move by at most one slot per diagonal, so a single sentinel per
 * side is provably enough).
 *
 * y is staged reversed (yr[k] = y[n-1-k]) so the inner loop reads
 * both series with stride +1: x[i] pairs with yr[n-1-d+i].
 */

#include "core/model/dtw_simd.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/check.hh"
#include "core/model/distance_scratch.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define RBV_DTW_X86 1
#else
#define RBV_DTW_X86 0
#endif

namespace rbv::core::detail {

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/** Same association order as the rolling-row reference kernel. */
inline double
min3(double a, double b, double c)
{
    return std::min(std::min(a, b), c);
}

/** Cell range [ilo, ihi] (by row i) of anti-diagonal d. */
inline std::pair<std::size_t, std::size_t>
diagRange(std::size_t m, std::size_t n, std::size_t d)
{
    return {d >= n ? d - n + 1 : 0, std::min(d, m - 1)};
}

/**
 * True when every cell of diagonal @p d, stored in @p diag, is
 * >= cutoff. Otherwise @p hint becomes the row of a cell below it.
 * Cells below the cutoff lie around the cheap warp paths, which
 * drift only a few rows between checks, so starting at @p hint
 * usually refutes a DP that will finish at the first cell read. The
 * hint is only where the scan starts: it wraps around and reads every
 * cell before answering true, because a cheap valley can also live at
 * lower rows (one that skipped the previous check's diagonal by
 * diagonal steps).
 */
inline bool
diagAtLeast(const double *diag, std::size_t m, std::size_t n,
            std::size_t d, double cutoff, std::size_t &hint)
{
    const auto [ilo, ihi] = diagRange(m, n, d);
    const std::size_t start = std::clamp(hint, ilo, ihi);
    for (std::size_t i = start; i <= ihi; ++i)
        if (!(diag[i + 1] >= cutoff)) {
            hint = i;
            return false;
        }
    for (std::size_t i = ilo; i < start; ++i)
        if (!(diag[i + 1] >= cutoff)) {
            hint = i;
            return false;
        }
    return true;
}

/**
 * Diagonals between two abandon tests. Testing less often only
 * delays an abandon by a few diagonals; it never changes whether
 * the call abandons.
 */
constexpr std::size_t AbandonCheckEvery = 8;

/**
 * Shared wavefront skeleton: stages yr and the three rows, seeds
 * diagonal 0, then runs Inner over every later diagonal. Inner
 * computes cells [ilo, ihi] of diagonal d into cur (buffer index
 * i+1) from prev1/prev2.
 *
 * With Abandon, the result is +inf exactly when the rolling-row
 * kernel would abandon, i.e. when the minimum of the last DP row is
 * >= cutoff (for p >= 0 row minima never decrease, so the rolling
 * kernel abandons at some row iff it abandons at the last one).
 * Every cell on diagonal d+1 reads only diagonals d and d-1, and a
 * cell is never below the neighbor it extends, so once both of
 * those diagonals and every last-row cell seen so far sit at or
 * above the cutoff, no later cell can pull the last-row minimum
 * below it and diagDrive returns +inf early.
 */
template <bool Abandon, typename Inner>
double
diagDrive(const double *x, std::size_t m, const double *y,
          std::size_t n, double p, double cutoff,
          DistanceScratch &scratch, Inner &&inner)
{
    const std::size_t row = m + 2;
    double *buf = scratch.diagTriple(row);
    double *yr = scratch.yRevBuf(n);
    for (std::size_t k = 0; k < n; ++k)
        yr[k] = y[n - 1 - k];
    std::fill(buf, buf + 3 * row, Inf);

    double *prev2 = buf;            // diagonal d-2
    double *prev1 = buf + row;      // diagonal d-1
    double *cur = buf + 2 * row;    // diagonal d

    prev1[1] = std::abs(x[0] - y[0]); // cell (0, 0), diagonal 0
    // Minimum of the last-row cells (m-1, *) computed so far, and
    // the row where the last abandon test found a cell below cutoff.
    double last_row_min = m == 1 ? prev1[1] : Inf;
    std::size_t hint = 0;

    const std::size_t last = m + n - 2;
    for (std::size_t d = 1; d <= last; ++d) {
        const auto [ilo, ihi] = diagRange(m, n, d);
        cur[ilo] = Inf;     // sentinel below the range (index ilo-1)
        cur[ihi + 2] = Inf; // sentinel above the range (index ihi+1)
        // yr index of cell (i, d-i) is n-1-d+i; nonnegative for
        // i >= ilo by construction. The base offset n-1-d can be
        // negative, so compute it signed; every access yd[i] with
        // i >= ilo lands back inside yr.
        const double *yd = yr + (static_cast<std::ptrdiff_t>(n) - 1 -
                                 static_cast<std::ptrdiff_t>(d));
        // Boundary cells sit exactly at the diagonal's ends: i == 0
        // is DP row 0 and i == d is DP column 0. The reference
        // evaluates those as (neighbor + |x-y|) + p — a different
        // association order than the interior recurrence — so peel
        // them off scalar, byte-for-byte the reference's way, and
        // run the uniform inner kernel on the interior only.
        std::size_t lo = ilo, hi = ihi;
        if (lo == 0) {
            cur[1] = prev1[1] + std::abs(x[0] - yd[0]) + p;
            lo = 1;
        }
        if (hi == d) {
            cur[hi + 1] =
                prev1[hi] + std::abs(x[hi] - yd[hi]) + p;
            --hi;
        }
        if (lo <= hi)
            inner(cur, prev1, prev2, x, yd, lo, hi, p);
        if constexpr (Abandon) {
            if (ihi == m - 1)
                last_row_min = std::min(last_row_min, cur[m]);
            if (d % AbandonCheckEvery == 0 && last_row_min >= cutoff &&
                diagAtLeast(cur, m, n, d, cutoff, hint) &&
                diagAtLeast(prev1, m, n, d - 1, cutoff, hint))
                return Inf;
        }
        double *tmp = prev2;
        prev2 = prev1;
        prev1 = cur;
        cur = tmp;
    }
    if (Abandon && last_row_min >= cutoff)
        return Inf;
    return prev1[m]; // cell (m-1, n-1) at buffer index m
}

inline void
scalarInner(double *cur, const double *prev1, const double *prev2,
            const double *x, const double *yd, std::size_t ilo,
            std::size_t ihi, double p)
{
    for (std::size_t i = ilo; i <= ihi; ++i) {
        const std::size_t bi = i + 1;
        const double best =
            min3(prev2[bi - 1], prev1[bi - 1] + p, prev1[bi] + p);
        cur[bi] = best + std::abs(x[i] - yd[i]);
    }
}

} // namespace

double
dtwDiagScalar(const double *x, std::size_t m, const double *y,
              std::size_t n, double async_penalty,
              DistanceScratch &scratch, double cutoff)
{
    RBV_DCHECK(m >= 1 && n >= 1,
               "dtwDiagScalar requires nonempty series");
    RBV_DCHECK(cutoff == Inf || async_penalty >= 0.0,
               "abandoning needs p >= 0, got p=" << async_penalty);
    if (cutoff == Inf)
        return diagDrive<false>(x, m, y, n, async_penalty, cutoff,
                                scratch, scalarInner);
    return diagDrive<true>(x, m, y, n, async_penalty, cutoff, scratch,
                           scalarInner);
}

#if RBV_DTW_X86

namespace {

__attribute__((target("avx2"))) inline void
avx2Inner(double *cur, const double *prev1, const double *prev2,
          const double *x, const double *yd, std::size_t ilo,
          std::size_t ihi, double p)
{
    const __m256d vp = _mm256_set1_pd(p);
    const __m256d sign = _mm256_set1_pd(-0.0);
    std::size_t i = ilo;
    for (; i + 3 <= ihi; i += 4) {
        const std::size_t bi = i + 1;
        const __m256d a = _mm256_loadu_pd(prev2 + bi - 1);
        const __m256d b =
            _mm256_add_pd(_mm256_loadu_pd(prev1 + bi - 1), vp);
        const __m256d c =
            _mm256_add_pd(_mm256_loadu_pd(prev1 + bi), vp);
        const __m256d best =
            _mm256_min_pd(_mm256_min_pd(a, b), c);
        const __m256d diff = _mm256_sub_pd(_mm256_loadu_pd(x + i),
                                           _mm256_loadu_pd(yd + i));
        const __m256d cost = _mm256_andnot_pd(sign, diff);
        _mm256_storeu_pd(cur + bi, _mm256_add_pd(best, cost));
    }
    for (; i <= ihi; ++i) {
        const std::size_t bi = i + 1;
        const double best =
            min3(prev2[bi - 1], prev1[bi - 1] + p, prev1[bi] + p);
        cur[bi] = best + std::abs(x[i] - yd[i]);
    }
}

} // namespace

__attribute__((target("avx2"))) double
dtwDiagAvx2(const double *x, std::size_t m, const double *y,
            std::size_t n, double async_penalty,
            DistanceScratch &scratch, double cutoff)
{
    RBV_DCHECK(m >= 1 && n >= 1, "dtwDiagAvx2 requires nonempty series");
    RBV_DCHECK(cutoff == Inf || async_penalty >= 0.0,
               "abandoning needs p >= 0, got p=" << async_penalty);
    if (cutoff == Inf)
        return diagDrive<false>(x, m, y, n, async_penalty, cutoff,
                                scratch, avx2Inner);
    return diagDrive<true>(x, m, y, n, async_penalty, cutoff, scratch,
                           avx2Inner);
}

bool
dtwAvx2Available()
{
    return __builtin_cpu_supports("avx2") != 0;
}

#else // !RBV_DTW_X86

double
dtwDiagAvx2(const double *x, std::size_t m, const double *y,
            std::size_t n, double async_penalty,
            DistanceScratch &scratch, double cutoff)
{
    return dtwDiagScalar(x, m, y, n, async_penalty, scratch, cutoff);
}

bool
dtwAvx2Available()
{
    return false;
}

#endif // RBV_DTW_X86

const char *
dtwKernelId()
{
    return dtwAvx2Available() ? "avx2" : "scalar";
}

} // namespace rbv::core::detail
