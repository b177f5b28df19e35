/**
 * @file
 * Per-thread scratch arena for the request differencing kernels.
 *
 * Every modeling result sits on O(n^2) pairwise differencing, so the
 * kernels run millions of times per campaign. The naive versions
 * allocated two fresh DP rows (and, for Levenshtein, two subsampled
 * copies) per call; at steady state that is pure allocator churn.
 * DistanceScratch owns all of that storage and only ever grows it,
 * so after the first few calls on a thread every kernel invocation
 * is allocation-free.
 *
 * Contract (see docs/PERFORMANCE.md):
 *
 *  - One arena per thread, obtained via threadDistanceScratch().
 *    Arenas are never shared, so the kernels stay safe under the
 *    parallel DistanceMatrix build and the experiment engine.
 *  - Buffers grow monotonically (reserve-like semantics) and are
 *    fully overwritten by each kernel before use; no kernel result
 *    ever depends on leftover contents, so reuse cannot perturb
 *    determinism.
 *  - The arena is an implementation detail of the kernels in
 *    distance.cc; nothing outside the model layer should reach into
 *    the buffers.
 */

#ifndef RBV_CORE_MODEL_DISTANCE_SCRATCH_HH
#define RBV_CORE_MODEL_DISTANCE_SCRATCH_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "os/syscall.hh"

namespace rbv::core {

/** Reusable buffers for the DTW / Levenshtein kernels. */
struct DistanceScratch
{
    /** Two flat DTW DP rows, stored back to back (2 * rowLen). */
    std::vector<double> dtwRows;

    /** Two flat Levenshtein DP rows for the wide-alphabet fallback. */
    std::vector<std::uint32_t> levRows;

    /** Myers Peq table: one 64-bit mask per (symbol, block). */
    std::vector<std::uint64_t> peq;

    /** Myers vertical delta vectors, one word per pattern block. */
    std::vector<std::uint64_t> myersPv;
    std::vector<std::uint64_t> myersMv;

    /** Subsample staging for the two syscall sequences. */
    std::vector<os::Sys> subA;
    std::vector<os::Sys> subB;

    /** Three anti-diagonal wavefront rows (3 * rowLen, dtw_simd). */
    std::vector<double> diagRows;

    /** Reversed copy of y for the anti-diagonal kernels. */
    std::vector<double> yRevStage;

    /** Query-side prefix-sum staging for the signature-bank prune. */
    std::vector<double> sigPrefix;

    /**
     * DTW DP cells computed on this thread, by every DTW kernel. A
     * deterministic work figure for tests and benches (the wavefront
     * kernels skip bound-pruned cells); nothing in the model reads it.
     */
    std::uint64_t dtwCells = 0;

    /**
     * The two DTW rows as raw pointers: element [0] and [rowLen] of
     * one grown flat buffer, so both rows come from one allocation
     * and stay hot in cache together.
     */
    std::pair<double *, double *>
    dtwRowPair(std::size_t row_len)
    {
        if (dtwRows.size() < 2 * row_len)
            dtwRows.resize(2 * row_len);
        return {dtwRows.data(), dtwRows.data() + row_len};
    }

    /**
     * Three anti-diagonal wavefront rows as one flat buffer of
     * 3 * row_len doubles (see dtw_simd.cc for the layout).
     */
    double *
    diagTriple(std::size_t row_len)
    {
        if (diagRows.size() < 3 * row_len)
            diagRows.resize(3 * row_len);
        return diagRows.data();
    }

    /** Staging buffer for the reversed second series. */
    double *
    yRevBuf(std::size_t n)
    {
        if (yRevStage.size() < n)
            yRevStage.resize(n);
        return yRevStage.data();
    }

    /** The two Levenshtein DP rows, same layout as dtwRowPair(). */
    std::pair<std::uint32_t *, std::uint32_t *>
    levRowPair(std::size_t row_len)
    {
        if (levRows.size() < 2 * row_len)
            levRows.resize(2 * row_len);
        return {levRows.data(), levRows.data() + row_len};
    }
};

/**
 * The calling thread's arena. Thread-lifetime storage: the first call
 * on a thread constructs it, kernels grow it, and it dies with the
 * thread.
 */
DistanceScratch &threadDistanceScratch();

} // namespace rbv::core

#endif // RBV_CORE_MODEL_DISTANCE_SCRATCH_HH
