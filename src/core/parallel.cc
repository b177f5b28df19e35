/**
 * @file
 * Worker pool implementation.
 */

#include "core/parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.hh"

namespace rbv::core {

std::size_t
threadCount(std::size_t count, int jobs)
{
    const std::size_t threads =
        jobs > 0 ? static_cast<std::size_t>(jobs)
                 : std::max(1u, std::thread::hardware_concurrency());
    return std::min(threads, count);
}

void
parallelFor(std::size_t count, int jobs,
            const std::function<void(std::size_t)> &fn)
{
    const std::size_t threads = threadCount(count, jobs);
    if (threads <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    // Chunked dynamic claiming: distance-matrix rows near the top of
    // the triangle are much longer than rows near the bottom, so
    // static slicing would leave threads idle — but claiming one
    // index per atomic op serializes threads on the cursor cache
    // line when fn is cheap (BENCH_distance.json once recorded the
    // parallel matrix build at 0.95x serial for exactly that reason).
    // Threads steal a stripe of consecutive indices per claim: few
    // enough stripes per thread to keep the tail balanced, few enough
    // atomic ops to stay off each other's cache lines. A short job
    // list (the experiment engine's tens of jobs) gets stripes of one.
    const std::size_t chunk =
        std::max<std::size_t>(1, count / (threads * 8));
    std::atomic<std::size_t> cursor{0};
    std::mutex errorMu;
    std::exception_ptr error; // First exception any fn(i) threw.
    auto work = [&] {
        try {
            for (;;) {
                const std::size_t start =
                    cursor.fetch_add(chunk, std::memory_order_relaxed);
                if (start >= count)
                    return;
                const std::size_t stop = std::min(count, start + chunk);
                for (std::size_t i = start; i < stop; ++i)
                    fn(i);
            }
        } catch (...) {
            // Stop handing out indices and rethrow on the caller once
            // every thread is joined.
            cursor.store(count, std::memory_order_relaxed);
            const std::lock_guard<std::mutex> lock(errorMu);
            if (!error)
                error = std::current_exception();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (std::size_t t = 1; t < threads; ++t) {
        pool.emplace_back([&work] {
            // The session hands this thread a shard no live thread
            // holds; shards merge only after the pool is joined.
            const obs::WorkerGuard guard;
            work();
        });
    }
    work();
    for (auto &th : pool)
        th.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace rbv::core
