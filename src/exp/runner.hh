/**
 * @file
 * Parallel experiment engine: declarative scenario grids expanded
 * into keyed jobs, executed concurrently by a thread pool, and merged
 * deterministically.
 *
 * Every figure reproduction is a campaign of independent runScenario()
 * calls swept over parameters (application, seed replicate, sampler /
 * policy / period variants). Each call owns a private EventQueue /
 * Machine / Kernel stack, so the calls are embarrassingly parallel;
 * the engine exploits that while keeping the campaign's observable
 * output bit-identical to a serial run:
 *
 *  - ScenarioGrid expands declared axes (cartesian product, in
 *    declaration order) into a flat job list, each job carrying a
 *    stable key such as "app=tpch/var=easing/rep=3";
 *  - ParallelRunner executes the jobs on --jobs worker threads and
 *    merges results by job index, so the merged vector's order never
 *    depends on the thread count or scheduling;
 *  - per-job progress and timing go to a log stream (stderr), never
 *    to stdout, so report tables stay byte-identical at any --jobs.
 */

#ifndef RBV_EXP_RUNNER_HH
#define RBV_EXP_RUNNER_HH

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel.hh"
#include "exp/scenario.hh"

namespace rbv::exp {

class Cli;

/** One unit of work: a fully resolved scenario plus a stable key. */
struct Job
{
    /** Stable identity; merge order follows the expansion order. */
    std::string key;

    ScenarioConfig config;

    /**
     * Optional replacement body. The default body is runScenario();
     * campaigns whose unit of work is a short serial chain of runs
     * (e.g. frequency-matching calibration loops) supply their own
     * body and stay one job.
     */
    std::function<ScenarioResult(const ScenarioConfig &)> body;
};

/** Outcome of one job, in the deterministic merge order. */
struct JobResult
{
    std::string key;
    ScenarioResult result;
    double seconds = 0.0; ///< Host wall time of this job.

    /**
     * The job-boundary failure contract: a body that throws is caught
     * here (after the configured retries), recorded, and never takes
     * down the rest of the sweep. A failed slot carries a
     * default-constructed result and must be skipped by consumers
     * (see tryResultFor / exitCodeFor).
     */
    bool failed = false;
    std::string error; ///< what() of the last attempt's exception.
    int attempts = 1;  ///< Attempts consumed (1 = no retry needed).
};

/**
 * Declarative sweep over scenario parameters.
 *
 * Axes multiply (cartesian product) and expand in declaration order,
 * so the job list — and therefore the merged result order — is a
 * deterministic function of the declaration alone. Each axis level
 * contributes one "name=value" segment to the job key.
 */
class ScenarioGrid
{
  public:
    using Mutator = std::function<void(ScenarioConfig &)>;

    /** One axis level: key segment plus its config mutation. */
    struct Level
    {
        std::string segment;
        Mutator apply;
    };

    explicit ScenarioGrid(ScenarioConfig base = {});

    /** Generic axis from explicit levels. */
    ScenarioGrid &axis(std::vector<Level> levels);

    /** Application axis ("app=<name>"). */
    ScenarioGrid &apps(const std::vector<wl::App> &apps);

    /**
     * Seed-replicate axis ("rep=<i>"): replicate i runs with
     * seed = base_seed + i * stride, matching the historical
     * per-bench replicate loops.
     */
    ScenarioGrid &replicates(int n, std::uint64_t stride = 1000);

    /** Named config-variant axis ("var=<name>"). */
    ScenarioGrid &
    variants(std::vector<std::pair<std::string, Mutator>> vs);

    /** Numeric sweep axis ("<name>=<value>"). */
    ScenarioGrid &sweep(const std::string &name,
                        const std::vector<double> &values,
                        std::function<void(ScenarioConfig &, double)>
                            apply);

    /**
     * Hook applied to every job after all axis mutations — the place
     * for per-application defaults (requests, warmup, concurrency).
     */
    ScenarioGrid &finalize(Mutator fn);

    /** Expand all axes into the flat, deterministically keyed list. */
    std::vector<Job> jobs() const;

  private:
    ScenarioConfig base;
    std::vector<std::vector<Level>> axes;
    std::vector<Mutator> finalizers;
};

/** Execution options for ParallelRunner. */
struct RunnerOptions
{
    /** Worker threads; <= 0 uses hardware_concurrency. */
    int jobs = 0;

    /** Emit per-job progress/timing lines to the log stream. */
    bool progress = true;

    /** Progress sink; null means std::cerr. */
    std::ostream *log = nullptr;

    /** Extra attempts for a job whose body throws (bounded retry). */
    int maxRetries = 0;

    /** Host-side backoff before retry i is i * backoffMs. */
    double backoffMs = 50.0;
};

/** Standard engine flags: --jobs N, --quiet, and --retries N. */
RunnerOptions runnerOptions(const Cli &cli);

/** Largest accepted --jobs value. */
constexpr int MaxJobs = 1024;

/**
 * The --jobs value, in [0, MaxJobs], for the engine and for nested
 * parallel kernels (e.g. core::DistanceMatrix::build): 0 (the
 * default) means all hardware threads.
 */
int jobsFlag(const Cli &cli);

/**
 * Executes a job list on the core::parallelFor() pool and merges the
 * results by job index. Results are bit-identical to a serial run at
 * any thread count: job bodies are pure functions of their configs,
 * and slot i of the returned vector always holds job i's outcome.
 */
class ParallelRunner
{
  public:
    explicit ParallelRunner(RunnerOptions opts = {});

    /** Run every job; returns outcomes in job order. */
    std::vector<JobResult> run(const std::vector<Job> &jobs) const;

    /**
     * Deterministic parallel map for campaigns whose unit of work is
     * not a ScenarioConfig (e.g. the Table 1 microbenchmarks): runs
     * fn(0..n-1) concurrently and merges by index.
     */
    template <typename Fn>
    auto
    map(std::size_t n, Fn &&fn) const
        -> std::vector<decltype(fn(std::size_t{}))>
    {
        std::vector<decltype(fn(std::size_t{}))> out(n);
        core::parallelFor(n, opts.jobs,
                          [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

  private:
    RunnerOptions opts;
};

/**
 * The result of the job with the given key; throws std::out_of_range
 * when absent. Linear scan — campaign sizes are tens of jobs.
 */
const ScenarioResult &resultFor(const std::vector<JobResult> &results,
                                const std::string &key);

/**
 * Like resultFor(), but null when the key is absent OR the job
 * failed: the partial-result path for degraded sweeps.
 */
const ScenarioResult *tryResultFor(const std::vector<JobResult> &results,
                                   const std::string &key);

/**
 * Process exit code for a sweep: 0 when every job succeeded, 3 when
 * any job failed and the report is degraded (2 is taken by CLI usage
 * errors).
 */
int exitCodeFor(const std::vector<JobResult> &results);

/**
 * Apply the exp-layer injectors (job-crash / job-timeout) of a fault
 * plan to a job list: selected jobs (a deterministic per-key lottery
 * on @p seed) get a throwing body. No-op for plans without job
 * faults.
 */
void applyJobFaults(std::vector<Job> &jobs, const fi::FaultPlan &plan,
                    std::uint64_t seed);

} // namespace rbv::exp

#endif // RBV_EXP_RUNNER_HH
