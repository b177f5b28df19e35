/**
 * @file
 * The repo's one worker pool. The experiment engine's job pool
 * (exp::ParallelRunner) and the pairwise distance-matrix build
 * (core::DistanceMatrix::build) both run on parallelFor(), so the
 * thread-count rule, the work decomposition and the observability
 * attachment are written once.
 */

#ifndef RBV_CORE_PARALLEL_HH
#define RBV_CORE_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace rbv::core {

/**
 * Threads parallelFor() uses for @p count items: @p jobs when
 * positive, otherwise the hardware concurrency (at least 1), capped
 * at @p count.
 */
std::size_t threadCount(std::size_t count, int jobs);

/**
 * Run fn(0 .. count-1) on threadCount(count, jobs) threads, the
 * caller working as thread 0. Indices are claimed dynamically in
 * stripes from an atomic cursor; every index runs exactly once, and
 * fn must write disjoint state per index, so results cannot depend on
 * the thread count or schedule. Every started thread records into the
 * live obs session (if any) under a session-assigned shard, so pools
 * may nest and counter totals stay the same at any thread count. If
 * fn throws, unclaimed indices are skipped and the first exception is
 * rethrown on the caller after every thread has joined.
 */
void parallelFor(std::size_t count, int jobs,
                 const std::function<void(std::size_t)> &fn);

} // namespace rbv::core

#endif // RBV_CORE_PARALLEL_HH
