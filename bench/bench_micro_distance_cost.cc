/**
 * @file
 * Micro-benchmark: computation cost of the request differencing
 * measures (Sec. 4.1-4.2).
 *
 * The paper notes that DTW costs O(m*n) against O(max(m,n)) for the
 * L1 distance, making L1 "the more attractive approach when the cost
 * of computing request differences must be kept low (particularly
 * for online request modeling)". This bench quantifies that gap over
 * realistic series lengths, and doubles as the fast-path
 * before/after table: every optimized kernel is benchmarked next to
 * its preserved pre-optimization reference (rbv::core::ref), and the
 * results of both are cross-checked for bit-identity before timing.
 *
 * Invoked as `bench_micro_distance_cost --json-out FILE` it skips
 * google-benchmark and instead writes the perf-trajectory baseline:
 * kernel ns/op and distance-matrix build wall time (reference,
 * serial fast path, 4-job fast path), as machine-readable JSON.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <thread>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/model/cascade.hh"
#include "core/model/distance.hh"
#include "core/model/distance_ref.hh"
#include "core/model/distance_scratch.hh"
#include "core/model/dtw_simd.hh"
#include "core/model/kmedoids.hh"
#include "stats/rng.hh"

using namespace rbv;
using namespace rbv::core;

namespace {

MetricSeries
randomSeries(std::size_t n, std::uint64_t seed)
{
    stats::Rng rng(seed);
    MetricSeries s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        s.push_back(rng.uniform(0.5, 4.0));
    return s;
}

std::vector<os::Sys>
randomSyscalls(std::size_t n, std::uint64_t seed)
{
    stats::Rng rng(seed);
    std::vector<os::Sys> s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        s.push_back(static_cast<os::Sys>(
            rng.uniformInt(static_cast<std::uint64_t>(os::NumSys))));
    return s;
}

void
BM_L1Distance(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto x = randomSeries(n, 1);
    const auto y = randomSeries(n + n / 10, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(l1Distance(x, y, 1.0));
    state.SetComplexityN(state.range(0));
}

void
BM_DtwDistance(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto x = randomSeries(n, 1);
    const auto y = randomSeries(n + n / 10, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(dtwDistance(x, y));
    state.SetComplexityN(state.range(0));
}

void
BM_DtwDistanceRef(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto x = randomSeries(n, 1);
    const auto y = randomSeries(n + n / 10, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(ref::dtwDistance(x, y, 0.0));
    state.SetComplexityN(state.range(0));
}

void
BM_DtwAsyncPenalty(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto x = randomSeries(n, 1);
    const auto y = randomSeries(n + n / 10, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(dtwDistance(x, y, 1.0));
    state.SetComplexityN(state.range(0));
}

void
BM_DtwEarlyAbandon(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto x = randomSeries(n, 1);
    const auto y = randomSeries(n + n / 10, 2);
    // A cutoff at half the exact value abandons partway through the
    // DP — the nearest-neighbor pruning case this kernel serves.
    const double cutoff = dtwDistance(x, y, 1.0) * 0.5;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            dtwDistanceEarlyAbandon(x, y, 1.0, cutoff));
    state.SetComplexityN(state.range(0));
}

void
BM_DtwEarlyAbandonFinish(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto x = randomSeries(n, 1);
    const auto y = randomSeries(n + n / 10, 2);
    // A cutoff just above the exact value never abandons: the kernel
    // runs the whole DP with its abandon test armed, as most
    // nearest-medoid comparisons do.
    const double cutoff = std::nextafter(
        dtwDistance(x, y, 1.0), std::numeric_limits<double>::infinity());
    for (auto _ : state)
        benchmark::DoNotOptimize(
            dtwDistanceEarlyAbandon(x, y, 1.0, cutoff));
    state.SetComplexityN(state.range(0));
}

void
BM_AvgMetricDistance(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto x = randomSeries(n, 1);
    const auto y = randomSeries(n, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(avgMetricDistance(x, y));
}

void
BM_Levenshtein(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto x = randomSyscalls(n, 1);
    const auto y = randomSyscalls(n, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(levenshteinDistance(x, y, 512));
}

void
BM_LevenshteinRef(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto x = randomSyscalls(n, 1);
    const auto y = randomSyscalls(n, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(ref::levenshteinDistance(x, y, 512));
}

void
BM_MatrixBuild(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const int jobs = static_cast<int>(state.range(1));
    std::vector<MetricSeries> series;
    series.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        series.push_back(randomSeries(128 + i % 32, i + 1));
    for (auto _ : state) {
        benchmark::DoNotOptimize(DistanceMatrix::build(
            n,
            [&](std::size_t i, std::size_t j) {
                return dtwDistance(series[i], series[j], 1.0);
            },
            jobs));
    }
    state.SetComplexityN(state.range(0));
}

void
BM_MatrixBuildRef(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<MetricSeries> series;
    series.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        series.push_back(randomSeries(128 + i % 32, i + 1));
    for (auto _ : state) {
        benchmark::DoNotOptimize(ref::distanceMatrixBuild(
            n, [&](std::size_t i, std::size_t j) {
                return ref::dtwDistance(series[i], series[j], 1.0);
            }));
    }
    state.SetComplexityN(state.range(0));
}

// ------------------------------------------- trajectory JSON emitter

using Clock = std::chrono::steady_clock;

double
elapsedMs(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/**
 * ns per fn() call: calibrate the iteration count to ~80 ms of wall
 * time, then report the best of three repetitions (the least
 * noise-inflated estimate).
 */
template <typename Fn>
double
nsPerOp(Fn &&fn)
{
    fn(); // warm caches and scratch arenas
    auto t0 = Clock::now();
    fn();
    const double once_ms = std::max(elapsedMs(t0), 1e-6);
    const auto iters = static_cast<std::size_t>(
        std::max(1.0, std::min(1e7, 80.0 / once_ms)));

    double best_ms = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
        t0 = Clock::now();
        for (std::size_t i = 0; i < iters; ++i)
            fn();
        best_ms = std::min(best_ms, elapsedMs(t0));
    }
    return best_ms * 1e6 / static_cast<double>(iters);
}

/**
 * A class-structured series: smooth per-class template (distinct
 * level and phase per class) plus small noise. Clustering workloads
 * look like this — a few behavior classes, not i.i.d. noise — and
 * only on such inputs are cascade prune rates honest numbers rather
 * than an artifact of uniformly random data.
 */
MetricSeries
classSeries(std::size_t len, std::size_t cls, std::uint64_t seed)
{
    stats::Rng rng(seed);
    MetricSeries s;
    s.reserve(len);
    const double base = 1.0 + 0.9 * static_cast<double>(cls);
    const double freq = 0.05 + 0.01 * static_cast<double>(cls);
    for (std::size_t k = 0; k < len; ++k)
        s.push_back(base +
                    0.4 * std::sin(freq * static_cast<double>(k)) +
                    rng.uniform(-0.08, 0.08));
    return s;
}

/** Bitwise equality of two clusterings (the cascade contract). */
bool
sameClustering(const Clustering &a, const Clustering &b)
{
    return a.medoids == b.medoids && a.assignment == b.assignment &&
           a.totalCost == b.totalCost;
}

int
emitTrajectory(const std::string &path)
{
    constexpr std::size_t KernelLen = 512;
    const auto x = randomSeries(KernelLen, 1);
    const auto y = randomSeries(KernelLen + KernelLen / 10, 2);
    const auto sx = randomSyscalls(2048, 1);
    const auto sy = randomSyscalls(2048, 2);

    // Cross-check the fast kernels against the reference before
    // trusting any timing: a fast-but-wrong kernel must not become
    // the baseline.
    const double dtw_ref = ref::dtwDistance(x, y, 1.0);
    const double dtw_new = dtwDistance(x, y, 1.0);
    const double lev_ref = ref::levenshteinDistance(sx, sy, 512);
    const double lev_new = levenshteinDistance(sx, sy, 512);
    // Early abandoning: a cutoff at half the exact value must
    // abandon, one just above it must finish with the exact value.
    constexpr double Inf = std::numeric_limits<double>::infinity();
    const double ea_cutoff = dtw_ref * 0.5;
    const double ea_finish_cutoff = std::nextafter(dtw_ref, Inf);
    const double dtw_ea = dtwDistanceEarlyAbandon(x, y, 1.0, ea_cutoff);
    const double dtw_ea_finish =
        dtwDistanceEarlyAbandon(x, y, 1.0, ea_finish_cutoff);
    if (dtw_new != dtw_ref || lev_new != lev_ref || dtw_ea != Inf ||
        dtw_ea_finish != dtw_ref) {
        std::cerr << "FATAL: kernel/reference mismatch (dtw "
                  << dtw_new << " vs " << dtw_ref << ", early-abandon "
                  << dtw_ea << " (want inf)/" << dtw_ea_finish << " vs "
                  << dtw_ref << ", lev " << lev_new << " vs "
                  << lev_ref << ")\n";
        return 1;
    }

    // Dispatch equivalence: every kernel behind dtwDistance and
    // dtwDistanceEarlyAbandon must agree bitwise on the same inputs
    // (the AVX2 and AVX-512 paths must not silently diverge on hosts
    // that have them).
    DistanceScratch &scr = threadDistanceScratch();
    const bool avx2 = core::detail::dtwAvx2Available();
    const bool avx512 = core::detail::dtwAvx512Available();
    const auto diag = [&](auto kernel, double cutoff) {
        return kernel(x.data(), x.size(), y.data(), y.size(), 1.0, scr,
                      cutoff);
    };
    for (const auto &[cutoff, want] :
         {std::pair{Inf, dtw_ref}, std::pair{ea_cutoff, Inf},
          std::pair{ea_finish_cutoff, dtw_ref}}) {
        if (diag(core::detail::dtwDiagScalar, cutoff) != want ||
            (avx2 && diag(core::detail::dtwDiagAvx2, cutoff) != want) ||
            (avx512 && diag(core::detail::dtwDiagAvx512, cutoff) != want)) {
            std::cerr << "FATAL: diag kernel dispatch diverges at cutoff "
                      << cutoff << "\n";
            return 1;
        }
    }

    // Bound pruning's work figure: DP cells the kernels computed, as
    // a fraction of the m * n an unpruned DP computes, on the kernel
    // inputs and over every pair of 24 class-structured series of
    // length 384-511 (pruning starts at 2^16 cells).
    std::uint64_t before = scr.dtwCells;
    benchmark::DoNotOptimize(dtwDistance(x, y, 1.0));
    const std::uint64_t kernel_cells = scr.dtwCells - before;
    const double kernel_kept_frac =
        static_cast<double>(kernel_cells) /
        static_cast<double>(x.size() * y.size());
    std::vector<MetricSeries> long_series;
    for (std::size_t i = 0; i < 24; ++i)
        long_series.push_back(classSeries(384 + (i * 37) % 128, i % 4,
                                          i + 101));
    before = scr.dtwCells;
    std::uint64_t class_all_cells = 0;
    for (std::size_t i = 0; i < long_series.size(); ++i)
        for (std::size_t j = i + 1; j < long_series.size(); ++j) {
            benchmark::DoNotOptimize(
                dtwDistance(long_series[i], long_series[j], 1.0));
            class_all_cells +=
                long_series[i].size() * long_series[j].size();
        }
    const std::uint64_t class_cells = scr.dtwCells - before;
    const double class_kept_frac = static_cast<double>(class_cells) /
                                   static_cast<double>(class_all_cells);

    const double dtw_ref_ns =
        nsPerOp([&] { benchmark::DoNotOptimize(
            ref::dtwDistance(x, y, 1.0)); });
    const double dtw_ns = nsPerOp(
        [&] { benchmark::DoNotOptimize(dtwDistance(x, y, 1.0)); });
    const double dtw_ea_ns = nsPerOp([&] {
        benchmark::DoNotOptimize(
            dtwDistanceEarlyAbandon(x, y, 1.0, ea_cutoff));
    });
    const double dtw_ea_finish_ns = nsPerOp([&] {
        benchmark::DoNotOptimize(
            dtwDistanceEarlyAbandon(x, y, 1.0, ea_finish_cutoff));
    });
    // The pruned DP per instruction set, for the ISAs the host has:
    // dtw_avx2 is the kernel schema 3's dtw row timed unpruned.
    std::string isa_rows, isa_echo;
    for (const auto &[row, present, kernel] :
         {std::tuple{"dtw_avx2", avx2, &core::detail::dtwDiagAvx2},
          std::tuple{"dtw_avx512", avx512,
                     &core::detail::dtwDiagAvx512}}) {
        if (!present)
            continue;
        const double ns = nsPerOp(
            [&] { benchmark::DoNotOptimize(diag(kernel, Inf)); });
        char line[96];
        std::snprintf(line, sizeof line, "    \"%s\": %.1f,\n", row, ns);
        isa_rows += line;
        std::snprintf(line, sizeof line, "  %-17s %10.1f\n", row, ns);
        isa_echo += line;
    }
    const double lev_ref_ns = nsPerOp([&] {
        benchmark::DoNotOptimize(
            ref::levenshteinDistance(sx, sy, 512));
    });
    const double lev_ns = nsPerOp([&] {
        benchmark::DoNotOptimize(levenshteinDistance(sx, sy, 512));
    });

    // Matrix build + clustering: the ISSUE's headline numbers. Wall
    // time of the pre-PR scalar path (std::function + per-call
    // allocation) vs the fast full build (serial / 4 jobs) vs the
    // lower-bound cascade, over identical class-structured inputs;
    // matrix cells and the clustering are required to be
    // byte-identical across every path.
    constexpr std::size_t MatrixN = 96;
    constexpr std::size_t Classes = 4;
    std::vector<MetricSeries> series;
    series.reserve(MatrixN);
    for (std::size_t i = 0; i < MatrixN; ++i)
        series.push_back(
            classSeries(192 + i % 64, i % Classes, i + 1));
    const auto cell = [&](std::size_t i, std::size_t j) {
        return dtwDistance(series[i], series[j], 1.0);
    };

    auto t0 = Clock::now();
    const auto dm_ref = ref::distanceMatrixBuild(
        MatrixN, [&](std::size_t i, std::size_t j) {
            return ref::dtwDistance(series[i], series[j], 1.0);
        });
    const double ref_ms = elapsedMs(t0);
    stats::Rng rng_ref(42);
    const auto cl_ref = kMedoids(dm_ref, Classes, rng_ref);

    t0 = Clock::now();
    const auto dm_serial = DistanceMatrix::build(MatrixN, cell, 1);
    const double serial_ms = elapsedMs(t0);

    t0 = Clock::now();
    const auto dm_par = DistanceMatrix::build(MatrixN, cell, 4);
    const double par4_ms = elapsedMs(t0);

    // The cascade replaces build + cluster in one shot: time it as
    // such (envelopes + kMedoids over the cascade), and demand the
    // identical clustering.
    std::vector<const MetricSeries *> items;
    items.reserve(MatrixN);
    for (const auto &s : series)
        items.push_back(&s);
    t0 = Clock::now();
    DistanceCascade dc(items.data(), MatrixN, 1.0);
    stats::Rng rng_casc(42);
    const auto cl_casc = kMedoids(dc, Classes, rng_casc);
    const double cascade_ms = elapsedMs(t0);

    bool identical = sameClustering(cl_ref, cl_casc);
    for (std::size_t i = 0; i < MatrixN && identical; ++i)
        for (std::size_t j = i + 1; j < MatrixN; ++j)
            if (dm_ref.at(i, j) != dm_serial.at(i, j) ||
                dm_ref.at(i, j) != dm_par.at(i, j)) {
                identical = false;
                break;
            }
    if (!identical) {
        std::cerr << "FATAL: matrix/cascade results diverge\n";
        return 1;
    }
    const double speedup = ref_ms / par4_ms;
    const double speedup_casc = ref_ms / cascade_ms;
    const CascadeStats cs = dc.stats();
    // Fraction of distance queries answered without running a fresh
    // DP (bound prune, memo hit, or trivial i==j). Early-abandoned
    // DPs still count as runs: the DP started, it just quit early.
    const double lookups =
        std::max<double>(1.0, static_cast<double>(cs.lookups));
    const double pruned_frac =
        static_cast<double>(cs.lookups - cs.dpRuns) / lookups;

    // n-scaling of the cascade clustering path (shorter series so
    // the n=1024 row stays in seconds even on one core).
    constexpr std::size_t ScaleLens[] = {96, 256, 1024};
    double scale_ms[3];
    std::uint64_t scale_dp[3], scale_cells[3];
    for (int si = 0; si < 3; ++si) {
        const std::size_t sn = ScaleLens[si];
        std::vector<MetricSeries> ss;
        ss.reserve(sn);
        for (std::size_t i = 0; i < sn; ++i)
            ss.push_back(
                classSeries(128 + i % 32, i % Classes, i + 7));
        std::vector<const MetricSeries *> sp;
        sp.reserve(sn);
        for (const auto &s : ss)
            sp.push_back(&s);
        t0 = Clock::now();
        DistanceCascade sdc(sp.data(), sn, 1.0);
        stats::Rng srng(42);
        benchmark::DoNotOptimize(kMedoids(sdc, Classes, srng));
        scale_ms[si] = elapsedMs(t0);
        scale_dp[si] = sdc.stats().dpRuns;
        scale_cells[si] =
            static_cast<std::uint64_t>(sn) * (sn - 1) / 2;
    }

    // Full-matrix build at 1/2/4 jobs over the fast kernel: on a
    // multi-core host this demonstrates parallel scaling without
    // lying on a 1-CPU runner (host_cpus is recorded next to it).
    const int sweep_jobs[] = {1, 2, 4};
    double sweep_ms[3];
    for (int si = 0; si < 3; ++si) {
        t0 = Clock::now();
        benchmark::DoNotOptimize(
            DistanceMatrix::build(MatrixN, cell, sweep_jobs[si]));
        sweep_ms[si] = elapsedMs(t0);
    }

    std::ofstream os(path);
    if (!os) {
        std::cerr << "cannot write " << path << "\n";
        return 1;
    }
    char buf[4096];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "  \"bench\": \"distance\",\n"
        "  \"schema\": 4,\n"
        "  \"host_cpus\": %u,\n"
        "  \"kernel_id\": \"%s\",\n"
        "  \"series_len\": %zu,\n"
        "  \"kernels_ns_op\": {\n"
        "    \"dtw_ref\": %.1f,\n"
        "    \"dtw\": %.1f,\n"
        "    \"dtw_early_abandon\": %.1f,\n"
        "    \"dtw_early_abandon_finish\": %.1f,\n"
        "%s"
        "    \"levenshtein_ref\": %.1f,\n"
        "    \"levenshtein\": %.1f\n"
        "  },\n"
        "  \"pruning\": {\n"
        "    \"kernel_cells\": %llu,\n"
        "    \"kernel_kept_frac\": %.3f,\n"
        "    \"class_cells\": %llu,\n"
        "    \"class_kept_frac\": %.3f\n"
        "  },\n"
        "  \"matrix_build\": {\n"
        "    \"n\": %zu,\n"
        "    \"ref_wall_ms\": %.2f,\n"
        "    \"serial_wall_ms\": %.2f,\n"
        "    \"par4_wall_ms\": %.2f,\n"
        "    \"cascade_wall_ms\": %.2f,\n"
        "    \"speedup_par4_vs_ref\": %.2f,\n"
        "    \"speedup_cascade_vs_ref\": %.2f,\n"
        "    \"byte_identical\": true\n"
        "  },\n"
        "  \"prune_rates\": {\n"
        "    \"lookups\": %llu,\n"
        "    \"lb_kim_prunes\": %llu,\n"
        "    \"lb_keogh_prunes\": %llu,\n"
        "    \"early_abandons\": %llu,\n"
        "    \"memo_hits\": %llu,\n"
        "    \"dp_runs\": %llu,\n"
        "    \"pruned_frac\": %.3f\n"
        "  },\n"
        "  \"n_scaling\": [\n"
        "    {\"n\": %zu, \"wall_ms\": %.2f, \"dp_runs\": %llu, "
        "\"cells\": %llu},\n"
        "    {\"n\": %zu, \"wall_ms\": %.2f, \"dp_runs\": %llu, "
        "\"cells\": %llu},\n"
        "    {\"n\": %zu, \"wall_ms\": %.2f, \"dp_runs\": %llu, "
        "\"cells\": %llu}\n"
        "  ],\n"
        "  \"jobs_sweep\": [\n"
        "    {\"jobs\": 1, \"wall_ms\": %.2f},\n"
        "    {\"jobs\": 2, \"wall_ms\": %.2f},\n"
        "    {\"jobs\": 4, \"wall_ms\": %.2f}\n"
        "  ]\n"
        "}\n",
        std::thread::hardware_concurrency(),
        core::detail::dtwKernelId(), KernelLen, dtw_ref_ns, dtw_ns,
        dtw_ea_ns, dtw_ea_finish_ns, isa_rows.c_str(),
        lev_ref_ns, lev_ns,
        static_cast<unsigned long long>(kernel_cells), kernel_kept_frac,
        static_cast<unsigned long long>(class_cells), class_kept_frac,
        MatrixN, ref_ms, serial_ms, par4_ms, cascade_ms, speedup,
        speedup_casc,
        static_cast<unsigned long long>(cs.lookups),
        static_cast<unsigned long long>(cs.kimPrunes),
        static_cast<unsigned long long>(cs.keoghPrunes),
        static_cast<unsigned long long>(cs.eaAbandons),
        static_cast<unsigned long long>(cs.memoHits),
        static_cast<unsigned long long>(cs.dpRuns), pruned_frac,
        ScaleLens[0], scale_ms[0],
        static_cast<unsigned long long>(scale_dp[0]),
        static_cast<unsigned long long>(scale_cells[0]),
        ScaleLens[1], scale_ms[1],
        static_cast<unsigned long long>(scale_dp[1]),
        static_cast<unsigned long long>(scale_cells[1]),
        ScaleLens[2], scale_ms[2],
        static_cast<unsigned long long>(scale_dp[2]),
        static_cast<unsigned long long>(scale_cells[2]),
        sweep_ms[0], sweep_ms[1], sweep_ms[2]);
    os << buf;

    // Human-readable echo of the before/after table.
    std::printf("kernel ns/op (len %zu, %s kernel):\n", KernelLen,
                core::detail::dtwKernelId());
    std::printf("  dtw               %10.1f  (ref %10.1f, %.2fx)\n",
                dtw_ns, dtw_ref_ns, dtw_ref_ns / dtw_ns);
    std::printf("  dtw early-abandon %10.1f  (finishing %10.1f)\n",
                dtw_ea_ns, dtw_ea_finish_ns);
    std::printf("%s", isa_echo.c_str());
    std::printf("pruned cells kept: %.3f at len %zu, %.3f over "
                "class-structured pairs\n",
                kernel_kept_frac, KernelLen, class_kept_frac);
    std::printf("  levenshtein       %10.1f  (ref %10.1f, %.2fx)\n",
                lev_ns, lev_ref_ns, lev_ref_ns / lev_ns);
    std::printf("matrix n=%zu: ref %.2f ms, serial %.2f ms, 4 jobs "
                "%.2f ms (%.2fx), cascade %.2f ms (%.2fx vs ref, "
                "byte-identical, %u host cpus)\n",
                MatrixN, ref_ms, serial_ms, par4_ms, speedup,
                cascade_ms, speedup_casc,
                std::thread::hardware_concurrency());
    std::printf("cascade prunes: %llu kim + %llu keogh + %llu "
                "abandoned of %llu lookups (%llu DPs ran, pruned "
                "frac %.3f)\n",
                static_cast<unsigned long long>(cs.kimPrunes),
                static_cast<unsigned long long>(cs.keoghPrunes),
                static_cast<unsigned long long>(cs.eaAbandons),
                static_cast<unsigned long long>(cs.lookups),
                static_cast<unsigned long long>(cs.dpRuns),
                pruned_frac);
    std::printf("n-scaling (len ~128): n=%zu %.2f ms, n=%zu %.2f "
                "ms, n=%zu %.2f ms\n",
                ScaleLens[0], scale_ms[0], ScaleLens[1], scale_ms[1],
                ScaleLens[2], scale_ms[2]);
    std::printf("wrote %s\n", path.c_str());
    return 0;
}

} // namespace

BENCHMARK(BM_L1Distance)->Range(16, 1024)->Complexity();
BENCHMARK(BM_DtwDistance)->Range(16, 1024)->Complexity();
BENCHMARK(BM_DtwDistanceRef)->Range(16, 1024)->Complexity();
BENCHMARK(BM_DtwAsyncPenalty)->Range(16, 1024)->Complexity();
BENCHMARK(BM_DtwEarlyAbandon)->Range(16, 1024)->Complexity();
BENCHMARK(BM_DtwEarlyAbandonFinish)->Range(16, 1024)->Complexity();
BENCHMARK(BM_AvgMetricDistance)->Range(16, 1024);
BENCHMARK(BM_Levenshtein)->Range(16, 4096);
BENCHMARK(BM_LevenshteinRef)->Range(16, 4096);
BENCHMARK(BM_MatrixBuild)
    ->ArgsProduct({{32, 96}, {1, 4}})
    ->Complexity();
BENCHMARK(BM_MatrixBuildRef)->Range(32, 96)->Complexity();

int
main(int argc, char **argv)
{
    // --json-out FILE (or --json-out=FILE): emit the perf-trajectory
    // baseline instead of running google-benchmark.
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--json-out=", 0) == 0)
            return emitTrajectory(arg.substr(11));
        if (arg == "--json-out" && i + 1 < argc)
            return emitTrajectory(argv[i + 1]);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
