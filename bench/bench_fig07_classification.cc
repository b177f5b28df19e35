/**
 * @file
 * Figure 7: request classification quality under the five
 * differencing measures, evaluated as cluster members' divergence
 * from their cluster centroids on (A) request CPU execution time and
 * (B) request peak (90-percentile) CPI. k-medoids with k = 10.
 *
 * Paper findings:
 *  - DTW with asynchrony penalty achieves the best quality overall;
 *    without the penalty, plain DTW can classify very poorly
 *    (no-cost time shifting under-estimates differences);
 *  - Levenshtein over syscall sequences is relatively poor (blind to
 *    dynamic hardware effects);
 *  - average-CPI signatures do well on the peak-CPI target but
 *    poorly on CPU time;
 *  - L1 is slightly worse than DTW+penalty but much cheaper.
 */

#include <iostream>

#include "core/model/cascade.hh"
#include "core/model/distance.hh"
#include "core/model/kmedoids.hh"
#include "exp/analysis.hh"
#include "exp/cli.hh"
#include "exp/obsio.hh"
#include "exp/report.hh"
#include "exp/runner.hh"
#include "exp/scenario.hh"
#include "stats/table.hh"

using namespace rbv;
using namespace rbv::exp;

namespace {

std::size_t
defaultRequests(wl::App app)
{
    switch (app) {
      case wl::App::Tpch: return 150;
      case wl::App::WebWork: return 100;
      default: return 240;
    }
}

/** All five measures in the paper's legend order. */
const core::Measure AllMeasures[] = {
    core::Measure::LevenshteinSyscalls,
    core::Measure::AvgMetric,
    core::Measure::L1,
    core::Measure::Dtw,
    core::Measure::DtwAsyncPenalty,
};

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli(argc, argv,
                  {"seed", "requests", "k", "jobs", "quiet"});
    const ObsScope obs(cli);
    const std::uint64_t seed = cli.getU64("seed", 1);
    const std::size_t k = static_cast<std::size_t>(cli.getInt("k", 10));

    banner("Figure 7", "Request classification quality "
           "(divergence from centroid; lower is better)",
           "DTW+asynchrony penalty best everywhere; plain DTW very "
           "poor; Levenshtein poor; avg-CPI good on peak CPI only");

    stats::Table ta({"application", "Levenshtein", "AvgCPI", "L1",
                     "DTW", "DTW+penalty"});
    stats::Table tb = ta;

    ScenarioConfig base;
    base.seed = seed;
    ScenarioGrid grid(base);
    grid.apps(wl::allApps()).finalize([&](ScenarioConfig &c) {
        c.requests = static_cast<std::size_t>(cli.getInt(
            "requests", static_cast<long>(defaultRequests(c.app))));
        c.warmup = c.requests / 10;
    });
    const auto results =
        ParallelRunner(runnerOptions(cli)).run(grid.jobs());

    for (std::size_t ai = 0; ai < wl::allApps().size(); ++ai) {
        const wl::App app = wl::allApps()[ai];
        const auto &res = results[ai].result;

        const double bin = defaultBinIns(res.records, 60);
        const auto series =
            seriesFor(res.records, core::Metric::Cpi, bin);
        stats::Rng prng(seed);
        const double penalty = core::lengthPenalty(series, prng);

        const auto cpu = requestCpuCycles(res.records);
        const auto peak = requestPeakCpis(res.records);

        std::vector<std::string> row_a = {wl::appDisplayName(app)};
        std::vector<std::string> row_b = {wl::appDisplayName(app)};

        std::vector<const core::MetricSeries *> items;
        items.reserve(series.size());
        for (const auto &s : series)
            items.push_back(&s);

        for (core::Measure m : AllMeasures) {
            core::Clustering cl;
            if (m == core::Measure::Dtw ||
                m == core::Measure::DtwAsyncPenalty) {
                // DTW measures run k-medoids over the lower-bound
                // cascade: bit-identical to the full matrix (same
                // seeding draw, strict-< winners, summation order),
                // so the tables cannot change — most pairwise DPs
                // just never run.
                const double p =
                    m == core::Measure::Dtw ? 0.0 : penalty;
                core::DistanceCascade dc(items.data(), items.size(),
                                         p);
                stats::Rng crng(seed + 99);
                cl = core::kMedoids(dc, k, crng);
            } else {
                auto dist = [&](std::size_t i,
                                std::size_t j) -> double {
                    switch (m) {
                      case core::Measure::LevenshteinSyscalls:
                        return core::levenshteinDistance(
                            res.records[i].syscalls,
                            res.records[j].syscalls, 256);
                      case core::Measure::AvgMetric:
                        return core::avgMetricDistance(series[i],
                                                       series[j]);
                      default:
                        return core::l1Distance(series[i], series[j],
                                                penalty);
                    }
                };

                // dist is pure in (i, j), so the parallel build is
                // byte-identical at any --jobs; the tables cannot
                // change.
                const auto dm = core::DistanceMatrix::build(
                    series.size(), dist, jobsFlag(cli));
                stats::Rng crng(seed + 99);
                cl = core::kMedoids(dm, k, crng);
            }

            row_a.push_back(stats::Table::pct(
                core::divergenceFromCentroid(cl, cpu), 1));
            row_b.push_back(stats::Table::pct(
                core::divergenceFromCentroid(cl, peak), 1));
        }
        ta.addRow(row_a);
        tb.addRow(row_b);
    }

    std::cout << "(A) divergence on request CPU execution time:\n";
    ta.print(std::cout);
    std::cout << "\n(B) divergence on request 90-percentile CPI:\n";
    tb.print(std::cout);
    std::cout << "\n";
    measured("DTW+penalty should have the lowest divergence in most "
             "cells; plain DTW and Levenshtein the highest");
    return 0;
}
