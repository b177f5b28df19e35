/**
 * @file
 * Parallel experiment engine implementation.
 */

#include "exp/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "exp/cli.hh"
#include "obs/obs.hh"

namespace rbv::exp {

namespace {

/** Trim trailing zeros from a sweep value ("2.5", "100"). */
std::string
fmtSweepValue(double v)
{
    std::ostringstream os;
    os << v;
    return os.str();
}

} // namespace

// ------------------------------------------------------ ScenarioGrid

ScenarioGrid::ScenarioGrid(ScenarioConfig base) : base(std::move(base))
{
}

ScenarioGrid &
ScenarioGrid::axis(std::vector<Level> levels)
{
    axes.push_back(std::move(levels));
    return *this;
}

ScenarioGrid &
ScenarioGrid::apps(const std::vector<wl::App> &apps)
{
    std::vector<Level> levels;
    for (wl::App app : apps) {
        levels.push_back({"app=" + wl::appShortName(app),
                          [app](ScenarioConfig &c) { c.app = app; }});
    }
    return axis(std::move(levels));
}

ScenarioGrid &
ScenarioGrid::replicates(int n, std::uint64_t stride)
{
    std::vector<Level> levels;
    for (int i = 0; i < n; ++i) {
        const auto offset = static_cast<std::uint64_t>(i) * stride;
        levels.push_back({"rep=" + std::to_string(i),
                          [offset](ScenarioConfig &c) {
                              c.seed += offset;
                          }});
    }
    return axis(std::move(levels));
}

ScenarioGrid &
ScenarioGrid::variants(std::vector<std::pair<std::string, Mutator>> vs)
{
    std::vector<Level> levels;
    for (auto &[name, apply] : vs)
        levels.push_back({"var=" + name, std::move(apply)});
    return axis(std::move(levels));
}

ScenarioGrid &
ScenarioGrid::sweep(const std::string &name,
                    const std::vector<double> &values,
                    std::function<void(ScenarioConfig &, double)> apply)
{
    std::vector<Level> levels;
    for (double v : values) {
        levels.push_back({name + "=" + fmtSweepValue(v),
                          [apply, v](ScenarioConfig &c) {
                              apply(c, v);
                          }});
    }
    return axis(std::move(levels));
}

ScenarioGrid &
ScenarioGrid::finalize(Mutator fn)
{
    finalizers.push_back(std::move(fn));
    return *this;
}

std::vector<Job>
ScenarioGrid::jobs() const
{
    // Cartesian product, first-declared axis outermost. Each leaf
    // job's config is built from the base by applying its full level
    // chain afresh — never by copying a partially mutated config —
    // so resources a mutator allocates (scheduler policies, sampler
    // hooks) are private to exactly one job. Sharing them across
    // jobs would race once the runner goes parallel.
    std::vector<std::vector<std::size_t>> combos;
    combos.emplace_back();
    for (const auto &levels : axes) {
        std::vector<std::vector<std::size_t>> next;
        next.reserve(combos.size() * levels.size());
        for (const auto &partial : combos) {
            for (std::size_t li = 0; li < levels.size(); ++li) {
                next.push_back(partial);
                next.back().push_back(li);
            }
        }
        combos = std::move(next);
    }

    std::vector<Job> out;
    out.reserve(combos.size());
    for (const auto &combo : combos) {
        Job job;
        job.config = base;
        for (std::size_t ai = 0; ai < combo.size(); ++ai) {
            const Level &level = axes[ai][combo[ai]];
            if (!job.key.empty())
                job.key += '/';
            job.key += level.segment;
            if (level.apply)
                level.apply(job.config);
        }
        if (job.key.empty())
            job.key = "run";
        for (const auto &fn : finalizers)
            fn(job.config);
        out.push_back(std::move(job));
    }
    return out;
}

// ---------------------------------------------------- ParallelRunner

RunnerOptions
runnerOptions(const Cli &cli)
{
    RunnerOptions opts;
    opts.jobs = jobsFlag(cli);
    opts.progress = !cli.getBool("quiet", false);
    opts.maxRetries = static_cast<int>(cli.getInt("retries", 0));
    return opts;
}

int
jobsFlag(const Cli &cli)
{
    return static_cast<int>(cli.getInt("jobs", 0, 0, MaxJobs));
}

ParallelRunner::ParallelRunner(RunnerOptions opts) : opts(opts) {}

std::vector<JobResult>
ParallelRunner::run(const std::vector<Job> &jobs) const
{
    std::ostream &log = opts.log ? *opts.log : std::cerr;
    if (opts.progress && jobs.size() > 1) {
        log << "engine: " << jobs.size() << " jobs on "
            << core::threadCount(jobs.size(), opts.jobs)
            << " thread(s)\n";
    }

    std::vector<JobResult> results(jobs.size());
    std::atomic<std::size_t> done{0};
    std::mutex log_mutex;

    core::parallelFor(jobs.size(), opts.jobs, [&](std::size_t i) {
        const Job &job = jobs[i];
        const auto t0 = std::chrono::steady_clock::now();
        JobResult &slot = results[i];
        slot.key = job.key;
        {
            // Each job's simulated-clock events render as their own
            // trace process, named by the job key.
            const obs::ScopedSimProcess proc(
                static_cast<std::uint32_t>(2 + i), job.key);

            // Job-boundary failure contract: a throwing body is
            // retried (bounded, with linear backoff), then recorded
            // as a failed slot — one poisoned job never takes down
            // the sweep.
            const int max_attempts = 1 + std::max(0, opts.maxRetries);
            for (int attempt = 1; attempt <= max_attempts; ++attempt) {
                slot.attempts = attempt;
                try {
                    slot.result = job.body ? job.body(job.config)
                                           : runScenario(job.config);
                    slot.failed = false;
                    slot.error.clear();
                    break;
                } catch (const std::exception &e) {
                    slot.failed = true;
                    slot.error = e.what();
                } catch (...) {
                    slot.failed = true;
                    slot.error = "non-standard exception";
                }
                if (attempt == max_attempts)
                    break;
                // Host-side wait only; job bodies are deterministic
                // in simulated time, so backoff never alters results.
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(
                        opts.backoffMs * attempt));
            }
            if (slot.failed)
                slot.result = ScenarioResult{};
        }
        slot.seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        obs::hostSlice("exp.job", job.key, slot.seconds * 1e6);
        RBV_COUNT(ExpJobsCompleted, 1);
        RBV_HIST(ExpJobMs, slot.seconds * 1e3);
        const std::size_t finished =
            done.fetch_add(1, std::memory_order_relaxed) + 1;
        if (opts.progress) {
            std::lock_guard<std::mutex> lock(log_mutex);
            log << "[" << finished << "/" << jobs.size() << "] "
                << job.key << "  ";
            if (slot.failed) {
                log << "FAILED after " << slot.attempts
                    << " attempt(s): " << slot.error << "  ";
            }
            log << static_cast<int>(slot.seconds * 100.0) / 100.0
                << "s\n";
        }
    });

    std::size_t failed = 0;
    for (const auto &r : results)
        failed += r.failed ? 1 : 0;
    if (failed > 0 && opts.progress) {
        log << "engine: " << failed << "/" << jobs.size()
            << " job(s) failed; the report is degraded\n";
    }
    return results;
}

const ScenarioResult &
resultFor(const std::vector<JobResult> &results, const std::string &key)
{
    for (const auto &r : results)
        if (r.key == key)
            return r.result;
    throw std::out_of_range("no job result with key " + key);
}

const ScenarioResult *
tryResultFor(const std::vector<JobResult> &results,
             const std::string &key)
{
    for (const auto &r : results)
        if (r.key == key)
            return r.failed ? nullptr : &r.result;
    return nullptr;
}

int
exitCodeFor(const std::vector<JobResult> &results)
{
    for (const auto &r : results)
        if (r.failed)
            return 3;
    return 0;
}

void
applyJobFaults(std::vector<Job> &jobs, const fi::FaultPlan &plan,
               std::uint64_t seed)
{
    const fi::FaultSpec *crash = plan.find(fi::FaultKind::JobCrash);
    const fi::FaultSpec *timeout = plan.find(fi::FaultKind::JobTimeout);
    if (crash == nullptr && timeout == nullptr)
        return;

    for (Job &job : jobs) {
        const std::uint64_t id = fi::stringHash64(job.key);
        if (crash != nullptr &&
            fi::unitIntervalHash(seed, 0xC4A5, id) <
                crash->param("p", 0.2)) {
            job.body = [key = job.key](const ScenarioConfig &)
                -> ScenarioResult {
                throw fi::InjectedFault("injected job crash (" + key +
                                        ")");
            };
            continue;
        }
        if (timeout != nullptr &&
            fi::unitIntervalHash(seed, 0x7E0F, id) <
                timeout->param("p", 0.2)) {
            auto inner = job.body;
            job.body = [inner, key = job.key](const ScenarioConfig &c)
                -> ScenarioResult {
                // Worst-case timeout: the work runs to completion,
                // then the deadline supervisor declares it overdue —
                // full cost, no result.
                if (inner)
                    inner(c);
                else
                    runScenario(c);
                throw fi::InjectedFault("injected job timeout (" + key +
                                        ")");
            };
        }
    }
}

} // namespace rbv::exp
