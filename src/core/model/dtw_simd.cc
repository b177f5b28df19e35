/**
 * @file
 * Anti-diagonal DTW kernel implementations.
 *
 * Wavefront layout: diagonal d holds cells (i, d-i) for
 * i in [max(0, d-n+1), min(d, m-1)]. Each cell is stored at buffer
 * index i+1 in a row of length m+2; slot 0 is a permanent +inf wall
 * (it stands for every j = -1 / i = -1 neighbor), and one +inf
 * sentinel past each end of a diagonal's computed range covers the
 * out-of-range reads of the two successor diagonals (see diagDrive
 * for why a single sentinel per side stays enough under pruning).
 *
 * y is staged reversed (yr[k] = y[n-1-k]) so the inner loop reads
 * both series with stride +1: x[i] pairs with yr[n-1-d+i].
 */

#include "core/model/dtw_simd.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "core/check.hh"
#include "core/model/distance_scratch.hh"

#if defined(__x86_64__) || defined(__i386__)
#define RBV_DTW_X86 1
#else
#define RBV_DTW_X86 0
#endif

namespace rbv::core::detail {

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/** Rows [lo, end) of one anti-diagonal; empty when lo >= end. */
struct RowSpan
{
    std::size_t lo = 0;
    std::size_t end = 0;

    bool empty() const { return lo >= end; }
};

/** Every row of anti-diagonal d. */
inline RowSpan
diagSpan(std::size_t m, std::size_t n, std::size_t d)
{
    return {d >= n ? d - n + 1 : 0, std::min(d, m - 1) + 1};
}

/**
 * DP value of a warp path that steps into cell (i, j), of local cost
 * @p c, from a neighbor of value @p v: the reference's own operations
 * in its own order, v + c for a diagonal step, (v + p) + c for a
 * straight one, and (v + c) + p on DP row and column 0.
 */
inline double
pathStep(double v, bool diagonal, std::size_t i, std::size_t j,
         double c, double p)
{
    if (diagonal)
        return v + c;
    if (i == 0 || j == 0)
        return (v + c) + p;
    return (v + p) + c;
}

/**
 * Smallest DP (m * n cells) that bound pruning pays for. Smaller DPs
 * prune fine, but their trimmed diagonals leave the vector lanes
 * idle and the bound's greedy walk is a serial chain: replayed
 * serve-tpcc and serve-micromix calls on the AVX-512 kernel ran up
 * to 1.6x slower pruned below about 2^15 cells, broke even near
 * 2^16 and ran about 0.5-0.6x from 2^18 cells.
 */
constexpr std::size_t PruneMinCells = std::size_t{1} << 16;

/**
 * An upper bound on the DTW result: the cheaper of two warp paths
 * from (0, 0) to (m-1, n-1), each evaluated with pathStep. One runs
 * the main diagonal, then straight along the last row or column; the
 * other takes the locally cheapest step until it meets the last row
 * or column, which follows the optimal path closely on similar
 * series. Round-to-nearest addition is monotone, so the DP, which
 * takes a min over the same operations at every cell, ends at or
 * below either path's value bit for bit.
 *
 * Returns +inf (prune nothing) when p < 0 or NaN, where a cell can
 * sit below the neighbor it extends, and below PruneMinCells.
 */
double
pathBound(const double *x, std::size_t m, const double *y,
          std::size_t n, double p)
{
    if (!(p >= 0.0) || m * n < PruneMinCells)
        return Inf;
    // Both paths end straight along the last row or column from (i, j).
    const auto finish = [&](std::size_t i, std::size_t j, double v) {
        while (j + 1 < n) {
            ++j;
            v = pathStep(v, false, i, j, std::abs(x[i] - y[j]), p);
        }
        while (i + 1 < m) {
            ++i;
            v = pathStep(v, false, i, j, std::abs(x[i] - y[j]), p);
        }
        return v;
    };
    const double start = std::abs(x[0] - y[0]);

    const std::size_t k = std::min(m, n) - 1;
    double diag = start;
    for (std::size_t i = 1; i <= k; ++i)
        diag = diag + std::abs(x[i] - y[i]);
    diag = finish(k, k, diag);

    std::size_t i = 0, j = 0;
    double greedy = start;
    while (i + 1 < m && j + 1 < n) {
        const double both = std::abs(x[i + 1] - y[j + 1]);
        const double down = p + std::abs(x[i + 1] - y[j]);
        const double right = p + std::abs(x[i] - y[j + 1]);
        const bool diagonal = both <= down && both <= right;
        const bool step_i = diagonal || down <= right;
        i += step_i;
        j += diagonal || !step_i; // every step moves (NaN costs too)
        greedy = pathStep(greedy, diagonal, i, j, std::abs(x[i] - y[j]),
                          p);
    }
    return std::min(diag, finish(i, j, greedy));
}

/**
 * True when every computed cell of one diagonal, rows @p rows of
 * @p diag, is >= cutoff (cells outside the computed range count as
 * +inf). Otherwise @p hint becomes the row of a cell below it.
 * Cells below the cutoff lie around the cheap warp paths, which
 * drift only a few rows between checks, so starting at @p hint
 * usually refutes a DP that will finish at the first cell read. The
 * hint is only where the scan starts: it wraps around and reads every
 * cell before answering true, because a cheap valley can also live at
 * lower rows (one that skipped the previous check's diagonal by
 * diagonal steps).
 */
inline bool
diagAtLeast(const double *diag, RowSpan rows, double cutoff,
            std::size_t &hint)
{
    const std::size_t start = std::clamp(hint, rows.lo, rows.end - 1);
    for (std::size_t i = start; i < rows.end; ++i)
        if (!(diag[i + 1] >= cutoff)) {
            hint = i;
            return false;
        }
    for (std::size_t i = rows.lo; i < start; ++i)
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
 * Bound pruning. With p >= 0 a cell is never below the neighbor its
 * minimum came from, so a cell whose value is <= UB (pathBound) has
 * such a neighbor, itself <= UB. Each diagonal therefore keeps a live
 * row range: its computed range with every end cell > UB trimmed off.
 * Diagonal d is computed only on the rows a live cell of d-1 (rows
 * i-1, i) or d-2 (row i-1) can reach,
 *
 *     C_d = ([lo1, hi1+1] u [lo2+1, hi2+1]) n diagSpan(d),
 *
 * taken as one hull. Cells outside C_d count as +inf, which is at or
 * above their true value, so every computed cell is at or above its
 * true value and every cell <= UB — each cell of the optimal path,
 * the final cell and every last-row minimum included — is computed
 * exactly: its minimizing neighbor is live and exact. Pruning is
 * therefore invisible in the result bits and in the abandon set.
 * C_d lies within C_{d-1} +- 1 and C_d.lo >= C_{d-2}.lo, so the
 * reads of C_d stay inside the computed ranges of d-1 and d-2 or land
 * on their one +inf sentinel per side; never on a stale slot from an
 * older diagonal.
 *
 * With Abandon, the result is +inf exactly when the rolling-row
 * kernel would abandon, i.e. when the minimum of the last DP row is
 * >= cutoff (for p >= 0 row minima never decrease, so the rolling
 * kernel abandons at some row iff it abandons at the last one).
 * Every cell on diagonal d+1 reads only diagonals d and d-1, and a
 * cell is never below the neighbor it extends, so once both of
 * those diagonals and every last-row cell seen so far sit at or
 * above the cutoff, no later cell can pull the last-row minimum
 * below it and diagDrive returns +inf early. Under pruning that test
 * reads computed cells only. A cell it cannot see, or sees inexact,
 * is > UB, so at or above any cutoff <= UB; for a cutoff > UB the
 * optimal path (exact, <= UB) crosses d or d-1 below the cutoff and
 * keeps the test false anyway.
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
    const double ub = pathBound(x, m, y, n, p);

    double *prev2 = buf;            // diagonal d-2
    double *prev1 = buf + row;      // diagonal d-1
    double *cur = buf + 2 * row;    // diagonal d

    prev1[1] = std::abs(x[0] - y[0]); // cell (0, 0), diagonal 0
    // Computed rows of d-1, live rows of d-1 and d-2.
    RowSpan comp1{0, 1}, live1{0, 1}, live2{0, 0};
    std::uint64_t cells = 1;
    // Minimum of the last-row cells (m-1, *) computed so far, and
    // the row where the last abandon test found a cell below cutoff.
    double last_row_min = m == 1 ? prev1[1] : Inf;
    std::size_t hint = 0;

    const std::size_t last = m + n - 2;
    for (std::size_t d = 1; d <= last; ++d) {
        RowSpan comp{std::numeric_limits<std::size_t>::max(), 0};
        if (!live1.empty())
            comp = {live1.lo, live1.end + 1};
        if (!live2.empty())
            comp = {std::min(comp.lo, live2.lo + 1),
                    std::max(comp.end, live2.end + 1)};
        const RowSpan full = diagSpan(m, n, d);
        comp = {std::max(comp.lo, full.lo), std::min(comp.end, full.end)};
        RBV_DCHECK(!comp.empty(), "pruned DTW lost every cell of "
                                      "diagonal " << d << ", UB " << ub);
        cur[comp.lo] = Inf;      // sentinel below the range (row lo-1)
        cur[comp.end + 1] = Inf; // sentinel above the range (row end)
        // yr index of cell (i, d-i) is n-1-d+i; nonnegative for
        // i >= full.lo by construction. The base offset n-1-d can be
        // negative, so compute it signed; every access yd[i] with
        // i >= full.lo lands back inside yr.
        const double *yd = yr + (static_cast<std::ptrdiff_t>(n) - 1 -
                                 static_cast<std::ptrdiff_t>(d));
        // Boundary cells sit exactly at the diagonal's ends: i == 0
        // is DP row 0 and i == d is DP column 0. The reference
        // evaluates those as (neighbor + |x-y|) + p — a different
        // association order than the interior recurrence — so peel
        // them off scalar, byte-for-byte the reference's way, and
        // run the uniform inner kernel on the interior only.
        std::size_t lo = comp.lo, end = comp.end;
        if (lo == 0) {
            cur[1] = prev1[1] + std::abs(x[0] - yd[0]) + p;
            lo = 1;
        }
        if (end == d + 1) {
            cur[d + 1] = prev1[d] + std::abs(x[d] - yd[d]) + p;
            --end;
        }
        if (lo < end)
            inner(cur, prev1, prev2, x, yd, lo, end - 1, p);
        cells += comp.end - comp.lo;

        RowSpan live = comp;
        while (!live.empty() && cur[live.lo + 1] > ub)
            ++live.lo;
        while (!live.empty() && cur[live.end] > ub)
            --live.end;

        if constexpr (Abandon) {
            if (comp.end == m)
                last_row_min = std::min(last_row_min, cur[m]);
            if (d % AbandonCheckEvery == 0 && last_row_min >= cutoff &&
                diagAtLeast(cur, comp, cutoff, hint) &&
                diagAtLeast(prev1, comp1, cutoff, hint)) {
                scratch.dtwCells += cells;
                return Inf;
            }
        }
        double *tmp = prev2;
        prev2 = prev1;
        prev1 = cur;
        cur = tmp;
        comp1 = comp;
        live2 = live1;
        live1 = live;
    }
    scratch.dtwCells += cells;
    RBV_DCHECK(comp1.end == m, "pruned DTW skipped the final cell");
    if (Abandon && last_row_min >= cutoff)
        return Inf;
    return prev1[m]; // cell (m-1, n-1) at buffer index m
}

/**
 * GCC vector types of W doubles and of their bit patterns. Spelled
 * out per width: GCC 12 ignores a vector_size that depends on a
 * template parameter in an alias declaration.
 */
template <std::size_t W>
struct Lanes;

template <>
struct Lanes<4>
{
    typedef double V __attribute__((vector_size(32)));
    typedef std::int64_t Bits __attribute__((vector_size(32)));
};

template <>
struct Lanes<8>
{
    typedef double V __attribute__((vector_size(64)));
    typedef std::int64_t Bits __attribute__((vector_size(64)));
};

/**
 * Cells [ilo, ihi] of one diagonal, W lanes at a time, then a scalar
 * tail. Every lane computes the reference's operand set in its order:
 * std::min(a, b) is `b < a ? b : a`, the selection written out below,
 * and |x-y| clears the sign bit. W == 1 is the portable kernel. The
 * body is always inlined, so a caller compiled for a wider ISA
 * (target attribute) compiles the vector loop for that ISA, and no
 * vector value ever crosses a call.
 */
template <std::size_t W>
[[gnu::always_inline]] inline void
wideInner(double *cur, const double *prev1, const double *prev2,
          const double *x, const double *yd, std::size_t ilo,
          std::size_t ihi, double p)
{
    std::size_t i = ilo;
    if constexpr (W > 1) {
        using V = typename Lanes<W>::V;
        using Bits = typename Lanes<W>::Bits;
        const V vp = V{} + p;
        const Bits magnitude = ~(Bits)(-V{}); // every bit but the sign
        for (; i + (W - 1) <= ihi; i += W) {
            const std::size_t bi = i + 1;
            // Unaligned loads; the operands stay in this function.
            V a, b, c, xs, ys;
            std::memcpy(&a, prev2 + bi - 1, sizeof a);
            std::memcpy(&b, prev1 + bi - 1, sizeof b);
            std::memcpy(&c, prev1 + bi, sizeof c);
            std::memcpy(&xs, x + i, sizeof xs);
            std::memcpy(&ys, yd + i, sizeof ys);
            b += vp;
            c += vp;
            const V ab = b < a ? b : a;
            const V best = c < ab ? c : ab;
            const V out = best + (V)((Bits)(xs - ys) & magnitude);
            std::memcpy(cur + bi, &out, sizeof out);
        }
    }
    for (; i <= ihi; ++i) {
        const std::size_t bi = i + 1;
        const double best = std::min(
            std::min(prev2[bi - 1], prev1[bi - 1] + p), prev1[bi] + p);
        cur[bi] = best + std::abs(x[i] - yd[i]);
    }
}

/** One entry point per kernel: both diagDrive instantiations. */
template <typename Inner>
inline double
diagDispatch(const double *x, std::size_t m, const double *y,
             std::size_t n, double p, DistanceScratch &scratch,
             double cutoff, Inner &&inner)
{
    RBV_DCHECK(m >= 1 && n >= 1, "diagonal DTW requires nonempty series");
    RBV_DCHECK(cutoff == Inf || p >= 0.0,
               "abandoning needs p >= 0, got p=" << p);
    if (cutoff == Inf)
        return diagDrive<false>(x, m, y, n, p, cutoff, scratch, inner);
    return diagDrive<true>(x, m, y, n, p, cutoff, scratch, inner);
}

} // namespace

double
dtwDiagScalar(const double *x, std::size_t m, const double *y,
              std::size_t n, double async_penalty,
              DistanceScratch &scratch, double cutoff)
{
    return diagDispatch(x, m, y, n, async_penalty, scratch, cutoff,
                        wideInner<1>);
}

#if RBV_DTW_X86

namespace {

__attribute__((target("avx2"))) void
avx2Inner(double *cur, const double *prev1, const double *prev2,
          const double *x, const double *yd, std::size_t ilo,
          std::size_t ihi, double p)
{
    wideInner<4>(cur, prev1, prev2, x, yd, ilo, ihi, p);
}

__attribute__((target("avx512f"))) void
avx512Inner(double *cur, const double *prev1, const double *prev2,
            const double *x, const double *yd, std::size_t ilo,
            std::size_t ihi, double p)
{
    wideInner<8>(cur, prev1, prev2, x, yd, ilo, ihi, p);
}

} // namespace

double
dtwDiagAvx2(const double *x, std::size_t m, const double *y,
            std::size_t n, double async_penalty,
            DistanceScratch &scratch, double cutoff)
{
    return diagDispatch(x, m, y, n, async_penalty, scratch, cutoff,
                        avx2Inner);
}

double
dtwDiagAvx512(const double *x, std::size_t m, const double *y,
              std::size_t n, double async_penalty,
              DistanceScratch &scratch, double cutoff)
{
    return diagDispatch(x, m, y, n, async_penalty, scratch, cutoff,
                        avx512Inner);
}

bool
dtwAvx2Available()
{
    return __builtin_cpu_supports("avx2") != 0;
}

bool
dtwAvx512Available()
{
    return __builtin_cpu_supports("avx512f") != 0;
}

#else // !RBV_DTW_X86

double
dtwDiagAvx2(const double *x, std::size_t m, const double *y,
            std::size_t n, double async_penalty,
            DistanceScratch &scratch, double cutoff)
{
    return dtwDiagScalar(x, m, y, n, async_penalty, scratch, cutoff);
}

double
dtwDiagAvx512(const double *x, std::size_t m, const double *y,
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

bool
dtwAvx512Available()
{
    return false;
}

#endif // RBV_DTW_X86

const char *
dtwKernelId()
{
    if (dtwAvx512Available())
        return "avx512";
    return dtwAvx2Available() ? "avx2" : "scalar";
}

} // namespace rbv::core::detail
