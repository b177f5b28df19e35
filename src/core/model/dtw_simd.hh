/**
 * @file
 * Anti-diagonal (wavefront) DTW kernels with runtime SIMD dispatch.
 *
 * The classic rolling-row DTW recurrence is latency-bound: cell
 * (i, j) needs cell (i, j-1) from the same row, so the inner loop is
 * one serial add/min dependency chain. Cells on one anti-diagonal
 * (i + j = d) have no dependencies among themselves — they only read
 * diagonals d-1 and d-2 — so evaluating the DP wavefront-by-wavefront
 * exposes both instruction-level parallelism and clean SIMD lanes.
 *
 * Exactness contract (the repo's iron rule, docs/PERFORMANCE.md):
 * every kernel here computes, per cell, exactly the operand set of
 * the reference recurrence
 *
 *     cell(i,j) = |x_i - y_j|
 *               + min3(cell(i-1,j-1), cell(i-1,j)+p, cell(i,j-1)+p)
 *
 * in the same association order. The recurrence contains no
 * multiplications, so no FMA contraction can perturb rounding, and
 * min over nonnegative finite doubles is order-exact — the cell DAG
 * fixes every intermediate bit regardless of evaluation order.
 * Results are therefore bit-identical to rbv::core::ref::dtwDistance
 * on every path (AVX-512, AVX2, portable), which the golden and
 * property suites assert on randomized inputs.
 *
 * Every path also skips, on DPs of 2^16 cells or more, the cells no
 * optimal warp path can reach: cells above the cost of a concrete
 * warp path (an upper bound on the result) are trimmed off each
 * diagonal's ends and their successors are never computed. Every
 * cell at or below that bound is still computed exactly, so the
 * pruning shows in no result bit and in no abandon decision
 * (docs/PERFORMANCE.md, "Bound-pruned wavefront").
 *
 * Dispatch is decided per call from the CPU feature set (GCC's
 * cpu_supports builtin reads a libgcc-initialized model block; no
 * mutable state of ours), so there is no global kernel registry and
 * nothing for rbvlint R2 to see.
 */

#ifndef RBV_CORE_MODEL_DTW_SIMD_HH
#define RBV_CORE_MODEL_DTW_SIMD_HH

#include <cstddef>
#include <limits>

namespace rbv::core {

struct DistanceScratch;

namespace detail {

/**
 * Portable anti-diagonal DTW. Requires m >= 1 and n >= 1; DP storage
 * comes from @p scratch (three wavefront rows plus a reversed copy
 * of y so every lane load is contiguous).
 *
 * A finite @p cutoff turns on early abandoning (requires
 * async_penalty >= 0): the result is +infinity exactly when the last
 * DP row's minimum is >= cutoff — the same set of inputs on which the
 * rolling-row kernel abandons — and the exact DTW value otherwise.
 * With the default +infinity the abandon test is compiled out.
 */
double dtwDiagScalar(const double *x, std::size_t m, const double *y,
                     std::size_t n, double async_penalty,
                     DistanceScratch &scratch,
                     double cutoff =
                         std::numeric_limits<double>::infinity());

/**
 * AVX2 anti-diagonal DTW (4 cells per vector op). Same contract and
 * bit-identical results; callers must check dtwAvx2Available() first.
 * On non-x86 builds this symbol exists but must not be called.
 */
double dtwDiagAvx2(const double *x, std::size_t m, const double *y,
                   std::size_t n, double async_penalty,
                   DistanceScratch &scratch,
                   double cutoff = std::numeric_limits<double>::infinity());

/**
 * AVX-512F anti-diagonal DTW (8 cells per vector op). Same contract
 * and bit-identical results; callers must check dtwAvx512Available()
 * first. On non-x86 builds this symbol exists but must not be called.
 */
double dtwDiagAvx512(const double *x, std::size_t m, const double *y,
                     std::size_t n, double async_penalty,
                     DistanceScratch &scratch,
                     double cutoff =
                         std::numeric_limits<double>::infinity());

/** True when the host CPU can run the AVX2 kernel. */
bool dtwAvx2Available();

/** True when the host CPU can run the AVX-512F kernel. */
bool dtwAvx512Available();

/** Dispatch target name for reports: "avx512", "avx2" or "scalar". */
const char *dtwKernelId();

} // namespace detail

} // namespace rbv::core

#endif // RBV_CORE_MODEL_DTW_SIMD_HH
