#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

/**
 * @file
 * Shared types of the benchmark driver: run options, the result a
 * workload reports (metrics, output checks, operation counts, report
 * lines), the two artifact recipes, and the per-layer profile.
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/schemes.h"
#include "fleet/fleet.h"
#include "spans.h"

namespace perfbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint32_t seed = 1;
    double seconds = 20.0;  ///< Measurement budget.
    bool trace = false;     ///< Per-layer (traced) run.
    bool smoke = false;     ///< Tiny sizes, for the benchmark's own test.
    std::string work_dir;   ///< Scratch directory owned by this run.

    /**
     * Design cache the fleet workload warms and then loads from; kept
     * across runs of one build (run.py keys it by the binary).
     */
    std::string fleet_cache;
};

/** One named measurement with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one run reports. */
struct Result
{
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, bool>> checks;
    std::vector<std::string> report;
    long long attempted = 0;
    long long failed = 0;

    void add(const std::string& name, double value, const std::string& unit)
    {
        metrics.push_back({name, value, unit});
    }
    void check(const std::string& name, bool ok)
    {
        checks.emplace_back(name, ok);
    }
    void line(const std::string& text) { report.push_back(text); }
};

/** @return the median of @p v (0 for an empty sample). */
inline double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Points core::cacheDir() at @p dir, emptied first when @p fresh.
 */
void useCacheDir(const std::string& dir, bool fresh);

/** The fleet recipe: the options fleet::fleetArtifacts() builds with. */
yukta::core::ArtifactOptions fleetRecipe();

/**
 * The paper recipe (Tables II/III, 4 D-K rounds, the paper's training
 * campaign); @p smoke shrinks it.
 */
yukta::core::ArtifactOptions paperRecipe(bool smoke);

/**
 * Runs the Fig. 3 design flow of @p recipe step by step and uncached
 * -- training campaign, HW SSV, OS SSV, LQG baselines -- with one span
 * per step ("core.training", "robust.hw_ssv", "robust.os_ssv",
 * "robust.lqg") inside a "core.design_flow" span. Same calls, same
 * order as core::buildArtifacts, so the bundle is bit-identical to it.
 * @throws std::runtime_error when a synthesis fails.
 */
yukta::core::Artifacts designInSteps(const yukta::core::ArtifactOptions& recipe,
                                     SpanLog& log);

/** What the per-layer profile measures against. */
struct LayerSubject
{
    const yukta::core::Artifacts* artifacts = nullptr;
    yukta::core::ArtifactOptions recipe;
    yukta::fleet::FleetConfig fleet;  ///< Coordinator and checkpoint subject.
    std::string work_dir;
    bool smoke = false;
};

/** Per-call host costs the profile found (for the attribution check). */
struct LayerCosts
{
    double step_period_s = 0.0;             ///< Unsupervised board-epoch.
    double supervised_step_period_s = 0.0;  ///< Supervised board-epoch.
    double board_period_parsec_s = 0.0;     ///< Sweep-app plant period.
    double controllers_self_s = 0.0;        ///< Step minus plant.
    double adapt_observe_s = 0.0;
    double arrivals_per_epoch_s = 0.0;
    double route_s = 0.0;
    double cluster_targets_s = 0.0;
    double checkpoint_save_s = 0.0;
};

/**
 * Times the public entry points of every layer (platform, controllers,
 * core, sysid, robust, fleet coordinator, obs checkpoints) against
 * @p subject, one span each inside a "layers.profile" span, and adds
 * their metrics to @p out.
 */
LayerCosts profileLayers(const LayerSubject& subject, SpanLog& log,
                         Result& out);

/** Runs one workload; returns its metrics, checks and report. */
Result runWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
