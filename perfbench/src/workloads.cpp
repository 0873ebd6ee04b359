/**
 * @file
 * The two workloads. Each runs in this one process, checks its
 * outputs, and reports host-time metrics (set-up, throughput, wall
 * time) and simulated outcomes. The traced variant also runs the
 * workload on the other worker count and decomposes it layer by layer
 * (see layers.cpp).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "fault/plan.h"
#include "fleet/artifacts.h"
#include "platform/apps.h"
#include "platform/config.h"
#include "runner/sweep.h"

namespace perfbench {

using namespace yukta;

namespace {

// Timed fleet runs step every board inline on one pool worker. On a
// shared 4-core host, fleet wall times on two workers, which meet at a
// barrier every epoch, spread by 0.19-0.27 of the median, quartile to
// quartile (two sets of five runs); inline, by 0.08-0.09 (two sets of
// ten). The sweep's independent runs keep two workers:
// inline sweeps spread no less (0.20 against 0.23, ten each). Traced
// runs time one and kPoolWorkers workers and check that the results
// match.
constexpr std::size_t kFleetWorkers = 1;
constexpr std::size_t kPoolWorkers = 2;

// Host time is reported for the fastest of many repetitions of the
// same work. Every repetition simulates exactly the same thing (the
// digest check), so the reps differ only by what the shared host takes
// from them: phases of seconds to minutes in which a rep runs up to
// 1.8x slower, in process CPU time as much as in wall time (no
// preemption; a contended core). A median follows those phases, the
// fastest rep less. A fleet rep is kept to about a second, and reps
// run until --seconds is spent, so a run holds a few dozen.
constexpr int kMinFleetReps = 3;

// paper_repro's sweeps fill about half of --seconds, at least two: its
// cold design flow already takes ~40 s of every run. A fixed count per
// budget, so a faster design does not buy more sweep samples.
constexpr double kNominalSweepS = 9.4;  // One sweep, 4-core x86 host.
constexpr int kMinSweeps = 2;

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string
fmt(double v, int digits = 3)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(digits) << v;
    return os.str();
}

double
sum(const std::vector<double>& v)
{
    double s = 0.0;
    for (double x : v) {
        s += x;
    }
    return s;
}

double
fastest(const std::vector<double>& v)
{
    return *std::min_element(v.begin(), v.end());
}

std::string
listed(const std::vector<double>& v)
{
    std::string s;
    for (double x : v) {
        s += (s.empty() ? "" : " ") + fmt(x);
    }
    return s;
}

/** A fleet workload: its configuration and run knobs. */
struct FleetSpec
{
    fleet::FleetConfig cfg;
    int checkpoint_every = 0;  ///< Epochs between checkpoints; 0 = none.
};

fleet::FleetConfig
stressConfig(std::uint32_t seed, bool smoke)
{
    fleet::FleetConfig cfg;
    cfg.seed = seed;
    cfg.boards = smoke ? 32 : 64;
    cfg.sim_seconds = smoke ? 12.0 : 20.0;
    cfg.scheme = core::Scheme::kYuktaFull;
    cfg.supervised = true;
    // Armed with no drift scheduled: every board pays RLS and CUSUM each
    // tick. The CUSUM can still raise a false alarm (the report counts
    // drift events, syntheses and swaps).
    cfg.adapt = true;
    cfg.arrivals.profile.base_rate = 20.0;
    cfg.arrivals.profile.amplitude = 0.6;
    // Two simulated days per run.
    cfg.arrivals.profile.period_seconds = 0.5 * cfg.sim_seconds;
    cfg.arrivals.board_weight = {4.0, 4.0};  // Hotspot on boards 0, 1.
    // Crash, degrade and a queue-preserving crash, scaled to the run
    // length. Hang and drift faults are left out on purpose: a hang
    // times the wall-clock watchdog deadline, a drift re-synthesis
    // stalls the fleet for seconds.
    const double s = cfg.sim_seconds / 120.0;
    std::ostringstream plan;
    plan << "seed=" << seed << ";board2:crash@" << 10 * s << "+" << 5 * s
         << ";board7:degrade@" << 15 * s << "+" << 10 * s
         << ";board30:crash@" << 70 * s << "+" << 10 * s << "*1";
    cfg.faults = fault::FaultPlan::parse(plan.str());
    return cfg;
}

FleetSpec
stressSpec(std::uint32_t seed, bool smoke)
{
    FleetSpec spec{stressConfig(seed, smoke), 0};
    // One checkpoint per run, half way (every 20 epochs at full size).
    spec.checkpoint_every =
        std::max(1, static_cast<int>(spec.cfg.sim_seconds / 0.5) / 2);
    return spec;
}

/** Output checks every fleet run must pass. */
void
checkFleet(const fleet::FleetMetrics& m, const fleet::FleetConfig& cfg,
           Result& out)
{
    const fleet::AdmissionStats& a = m.admission;
    out.check("fleet.offered_is_accepted_plus_rejected",
              a.offered == a.accepted + a.rejected && a.offered > 0);
    out.check("fleet.completed_at_most_accepted", m.completed <= a.accepted);
    out.check("fleet.energy_finite_positive",
              std::isfinite(m.energy) && m.energy > 0.0);
    out.check("fleet.all_epochs_run",
              m.epochs == static_cast<int>(cfg.sim_seconds / 0.5));
    if (!cfg.faults.empty()) {
        out.check("fault.two_crashes_two_reboots",
                  m.faults.crashes == 2 && m.faults.reboots == 2);
        out.check("fault.degraded_epochs", m.faults.degraded_epochs > 0);
        out.check("fault.no_lost_epochs", m.faults.lost_epochs == 0);
    }
}

/**
 * Runs @p sim (built from @p spec) on @p workers; checkpoints, if the
 * workload takes them, go to the fresh directory @p dir.
 */
fleet::FleetMetrics
runFleet(fleet::FleetSim& sim, const FleetSpec& spec, std::size_t workers,
         const std::string& dir)
{
    fleet::CheckpointConfig ckpt;
    if (spec.checkpoint_every > 0) {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        ckpt.every_epochs = spec.checkpoint_every;
        ckpt.dir = dir;
    }
    return sim.run(workers, ckpt);
}

void
reportFleet(const fleet::FleetMetrics& m, Result& out)
{
    const fleet::AdmissionStats& a = m.admission;
    out.line("sim: fleet_exd_js " + fmt(m.exd, 1) + "  served_gi " +
             fmt(m.served_gi, 1) + "  slo_violation_bs " +
             fmt(m.slo_violation_time, 1) + "  request_p99_s " +
             fmt(m.latency.quantile(0.99)) + "  constraint_violation_bs " +
             fmt(m.constraint_violation_time, 1));
    out.line("sim: offered " + std::to_string(a.offered) + "  accepted " +
             std::to_string(a.accepted) + "  rejected " +
             std::to_string(a.rejected) + "  rerouted " +
             std::to_string(a.rerouted) + "  accept_frac " +
             fmt(static_cast<double>(a.accepted) /
                 static_cast<double>(std::max(1LL, a.offered))));
    out.line("sim: crashes " + std::to_string(m.faults.crashes) +
             "  reboots " + std::to_string(m.faults.reboots) +
             "  degraded_epochs " + std::to_string(m.faults.degraded_epochs) +
             "  adapt " + m.adapt.toJson());
    std::ostringstream d;
    d << "digest " << std::hex << m.digest();
    out.line(d.str());
}

Result
fleetWorkload(const Options& o, const FleetSpec& spec)
{
    Result out;
    useCacheDir(o.fleet_cache, false);
    // Untimed: make sure the benchmark's own design cache holds the
    // fleet recipe, so every timed set-up is a warm load.
    const auto warm = Clock::now();
    fleet::fleetArtifacts();
    out.line("untimed cache warm-up " + fmt(since(warm)) + " s");

    // Set-up: a warm fleetArtifacts() load plus FleetSim construction.
    // It takes a fraction of a second; sample it nine times.
    std::vector<double> setup;
    core::Artifacts art;
    while (setup.size() < 9) {
        const auto t0 = Clock::now();
        art = fleet::fleetArtifacts();
        const fleet::FleetSim sim(spec.cfg, art);
        setup.push_back(since(t0));
    }

    // One untimed warm-up rep, then timed ones until --seconds is spent.
    std::vector<double> walls;
    std::vector<std::uint64_t> digests;
    fleet::FleetMetrics last;
    const int min_reps = o.smoke ? 2 : kMinFleetReps;
    const auto start = Clock::now();
    for (int rep = 0; rep <= min_reps || since(start) < o.seconds; ++rep) {
        fleet::FleetSim sim(spec.cfg, art);
        ++out.attempted;
        try {
            const auto t1 = Clock::now();
            last = runFleet(sim, spec, kFleetWorkers, o.work_dir + "/ckpt");
            if (rep > 0) {
                walls.push_back(since(t1));
            }
        } catch (const std::exception& e) {
            ++out.failed;
            out.line(std::string("fleet run failed: ") + e.what());
            return out;
        }
        checkFleet(last, spec.cfg, out);
        digests.push_back(last.digest());
        if (spec.checkpoint_every > 0) {
            out.check("obs.checkpoint_written",
                      std::filesystem::exists(o.work_dir +
                                              "/ckpt/fleet-latest.ckpt"));
        }
    }
    bool same = true;
    for (std::uint64_t d : digests) {
        same = same && d == digests.front();
    }
    out.check("fleet.digest_same_every_rep", same);

    const double wall = fastest(walls);
    out.add("setup_s", median(setup), "s");
    out.add("run_wall_s", wall, "s");
    out.add("board_epochs_per_s",
            static_cast<double>(last.boards) * last.epochs / wall, "1/s");
    out.add("sim_energy_j", last.energy, "J");
    out.line("workers " + std::to_string(kFleetWorkers) + "  run walls s: " +
             listed(walls) + "  (fastest " + fmt(wall) + ", median " +
             fmt(median(walls)) + ")  set-ups s: " + listed(setup));
    reportFleet(last, out);
    return out;
}

/** Adds the design-flow step times recorded by designInSteps. */
void
addLayerDesign(const SpanLog& log, Result& out)
{
    out.add("core.training_s", log.total("core.training"), "s");
    out.add("robust.hw_ssv_s", log.total("robust.hw_ssv"), "s");
    out.add("robust.os_ssv_s", log.total("robust.os_ssv"), "s");
    out.add("robust.lqg_s", log.total("robust.lqg"), "s");
}

Result
fleetWorkloadTraced(const Options& o, const FleetSpec& spec)
{
    const fleet::FleetConfig& cfg = spec.cfg;
    Result out;
    SpanLog log(o.workload);
    useCacheDir(o.fleet_cache, false);
    const core::ArtifactOptions recipe = fleetRecipe();
    const core::Artifacts stepped = designInSteps(recipe, log);
    core::Artifacts art;
    timed(log, "fleet.fleet_artifacts", [&] { art = fleet::fleetArtifacts(); });

    fleet::FleetMetrics m2;
    fleet::FleetMetrics m1;
    ++out.attempted;
    const double w2 = timed(log, "fleet.run_w2", [&] {
        fleet::FleetSim sim(cfg, art);
        m2 = runFleet(sim, spec, kPoolWorkers, o.work_dir + "/ckpt2");
    });
    ++out.attempted;
    const double w1 = timed(log, "fleet.run_w1", [&] {
        fleet::FleetSim sim(cfg, stepped);
        m1 = runFleet(sim, spec, 1, o.work_dir + "/ckpt1");
    });
    checkFleet(m2, cfg, out);
    // One worker on the stepped design vs two on fleetArtifacts():
    // checks 1-vs-N determinism and that the design steps reproduce
    // the library's recipe.
    out.check("fleet.digest_w1_equals_w2", m1.digest() == m2.digest());

    LayerSubject subject;
    subject.artifacts = &art;
    subject.recipe = recipe;
    subject.fleet = cfg;
    subject.work_dir = o.work_dir;
    subject.smoke = o.smoke;
    const LayerCosts c = profileLayers(subject, log, out);

    // Outside-in attribution of the one-worker run.
    const double board_epochs = static_cast<double>(m1.boards) * m1.epochs;
    double explained =
        board_epochs * (cfg.supervised ? c.supervised_step_period_s
                                       : c.step_period_s) +
        m1.epochs * c.arrivals_per_epoch_s +
        static_cast<double>(m1.admission.offered) * c.route_s +
        m1.cluster_rounds * c.cluster_targets_s;
    if (cfg.adapt) {
        explained += board_epochs * c.adapt_observe_s;
    }
    if (spec.checkpoint_every > 0) {
        explained += (m1.epochs / spec.checkpoint_every) * c.checkpoint_save_s;
    }
    addLayerDesign(log, out);
    out.add("runner.run_w1_s", w1, "s");
    out.add("runner.parallel_efficiency", w1 / (kPoolWorkers * w2),
            "frac");
    out.add("runner.unattributed_frac", 1.0 - explained / w1, "frac");
    out.line("workers 1 vs " + std::to_string(kPoolWorkers) + ": " +
             fmt(w1) + " s vs " + fmt(w2) + " s; layers explain " +
             fmt(explained) + " s of the 1-worker run");
    reportFleet(m1, out);
    log.write(o.work_dir + "/spans.jsonl");
    return out;
}

// --- paper_repro: Fig. 3 design flow, then the Fig. 9 sweep ---

const std::vector<core::Scheme>&
fig9Schemes()
{
    static const std::vector<core::Scheme> schemes = {
        core::Scheme::kCoordinatedHeuristic,
        core::Scheme::kDecoupledHeuristic,
        core::Scheme::kYuktaHwSsvOsHeuristic,
        core::Scheme::kYuktaFull,
    };
    return schemes;
}

runner::SweepSpec
fig9Sweep(std::uint32_t seed, bool smoke)
{
    runner::SweepSpec spec;
    spec.schemes = fig9Schemes();
    spec.workloads = platform::AppCatalog::specApps();
    for (const std::string& app : platform::AppCatalog::parsecApps()) {
        spec.workloads.push_back(app);
    }
    if (smoke) {
        spec.schemes = {core::Scheme::kCoordinatedHeuristic,
                        core::Scheme::kYuktaFull};
        spec.workloads = {platform::AppCatalog::specApps().front(),
                          platform::AppCatalog::parsecApps().front()};
    }
    spec.seeds = {seed};
    spec.max_seconds = smoke ? 20.0 : 1200.0;
    spec.artifact_tag = "paper";
    return spec;
}

runner::SweepResult
sweep(const core::Artifacts& art, const runner::SweepSpec& spec,
      std::size_t workers)
{
    runner::RunnerOptions ro;
    ro.workers = workers;
    ro.use_cache = false;
    return runner::runSweep(art, spec, ro);
}

/** Counts the sweep's runs and checks that every one finished ok. */
void
checkSweep(const runner::SweepResult& r, const runner::SweepSpec& spec,
           Result& out)
{
    const std::size_t ok = r.countStatus(runner::TaskOutcome::Status::kOk);
    out.attempted += static_cast<long long>(r.records.size());
    out.failed += static_cast<long long>(r.records.size() - ok);
    out.check("runner.every_sweep_run_ok",
              ok == r.records.size() &&
                  r.records.size() == spec.schemes.size() *
                                          spec.workloads.size());
    for (const runner::RunRecord& rec : r.records) {
        if (rec.status != runner::TaskOutcome::Status::kOk) {
            out.line("run " + runner::schemeId(rec.scheme) + "/" +
                     rec.workload + " failed: " + rec.error);
        }
    }
}

/** Fig. 9 overall averages of Yukta full over the coordinated heuristic. */
std::pair<double, double>
fig9Norms(const runner::SweepResult& r, const runner::SweepSpec& spec)
{
    double exd = 0.0;
    double time = 0.0;
    for (const std::string& app : spec.workloads) {
        const auto* base = r.metricsFor(core::Scheme::kCoordinatedHeuristic,
                                        app, spec.seeds.front());
        const auto* full =
            r.metricsFor(core::Scheme::kYuktaFull, app, spec.seeds.front());
        if (base == nullptr || full == nullptr) {
            return {0.0, 0.0};
        }
        exd += full->exd / base->exd;
        time += full->exec_time / base->exec_time;
    }
    const double n = static_cast<double>(spec.workloads.size());
    return {exd / n, time / n};
}

double
sweepPeriods(const runner::SweepResult& r)
{
    double periods = 0.0;
    for (const runner::RunRecord& rec : r.records) {
        periods += rec.metrics.periods;
    }
    return periods;
}

void
checkDesign(const core::Artifacts& art, Result& out)
{
    const double hw = art.hw_ssv.controller.mu_peak;
    const double os = art.os_ssv.controller.mu_peak;
    out.check("robust.ssv_controllers_certified",
              std::isfinite(hw) && hw > 0.0 && std::isfinite(os) && os > 0.0 &&
                  art.hw_ssv.controller.k.numStates() > 0 &&
                  art.os_ssv.controller.k.numStates() > 0);
}

void
reportPaper(const core::Artifacts& art, const runner::SweepResult& r,
            const runner::SweepSpec& spec, double sweep_s,
            std::size_t workers, Result& out)
{
    const auto [exd, time] = fig9Norms(r, spec);
    out.line("accuracy: fig9_exd_norm " + fmt(exd) + " (paper 0.50, " +
             "EXPERIMENTS.md 0.83)  fig9_time_norm " + fmt(time) +
             " (paper 0.62, EXPERIMENTS.md 0.99)");
    out.line("accuracy: the board is a simulated plant; beyond these "
             "figures it is not validated against hardware");
    out.line("sim: hw_mu_peak " + fmt(art.hw_ssv.controller.mu_peak, 4) +
             "  os_mu_peak " + fmt(art.os_ssv.controller.mu_peak, 4) +
             "  dk_iterations hw " +
             std::to_string(art.hw_ssv.controller.dk_iterations) + " os " +
             std::to_string(art.os_ssv.controller.dk_iterations));
    std::vector<double> run_s;
    double violation = 0.0;
    double exec = 0.0;
    for (const runner::RunRecord& rec : r.records) {
        run_s.push_back(rec.wall_seconds);
        violation += rec.metrics.violation_time;
        exec += rec.metrics.exec_time;
    }
    out.line("sim: violation_frac " + fmt(violation / exec, 4) +
             " (cap-violation time / execution time, all runs)");
    const double max_s = *std::max_element(run_s.begin(), run_s.end());
    out.line("runner: busy_frac " +
             fmt(sum(run_s) / (workers * sweep_s)) + "  run_s_p50 " +
             fmt(median(run_s)) + "  run_s_max " + fmt(max_s));
}

Result
paperWorkload(const Options& o)
{
    Result out;
    // Cold design flow from an empty design cache: the set-up.
    useCacheDir(o.work_dir + "/cache", true);
    ++out.attempted;
    core::Artifacts art;
    const auto t0 = Clock::now();
    try {
        art = core::buildArtifacts(platform::BoardConfig::odroidXu3(),
                                   paperRecipe(o.smoke));
    } catch (const std::exception& e) {
        ++out.failed;
        out.line(std::string("design flow failed: ") + e.what());
        return out;
    }
    const double setup = since(t0);
    checkDesign(art, out);

    const runner::SweepSpec spec = fig9Sweep(o.seed, o.smoke);
    std::vector<double> walls;
    runner::SweepResult last;
    const int sweeps = std::max(
        kMinSweeps, static_cast<int>(0.5 * o.seconds / kNominalSweepS));
    for (int rep = 0; rep < sweeps; ++rep) {
        const auto t1 = Clock::now();
        last = sweep(art, spec, kPoolWorkers);
        walls.push_back(since(t1));
        checkSweep(last, spec, out);
    }
    const double wall = fastest(walls);
    out.add("setup_s", setup, "s");
    out.add("run_wall_s", wall, "s");
    out.add("board_epochs_per_s", sweepPeriods(last) / wall, "1/s");
    double energy = 0.0;
    for (const runner::RunRecord& rec : last.records) {
        energy += rec.metrics.energy;
    }
    out.add("sim_energy_j", energy, "J");
    out.line("workers " + std::to_string(kPoolWorkers) + "  sweep walls s: " +
             listed(walls) + "  (fastest " + fmt(wall) + ", median " +
             fmt(median(walls)) + ")  design s: " + fmt(setup));
    reportPaper(art, last, spec, walls.back(), kPoolWorkers, out);
    return out;
}

Result
paperWorkloadTraced(const Options& o)
{
    Result out;
    SpanLog log(o.workload);
    useCacheDir(o.work_dir + "/cache", true);
    const core::ArtifactOptions recipe = paperRecipe(o.smoke);
    ++out.attempted;
    const core::Artifacts art = designInSteps(recipe, log);
    checkDesign(art, out);

    const runner::SweepSpec spec = fig9Sweep(o.seed, o.smoke);
    runner::SweepResult r2;
    runner::SweepResult r1;
    const double w2 =
        timed(log, "runner.sweep_w2",
              [&] { r2 = sweep(art, spec, kPoolWorkers); });
    const double w1 =
        timed(log, "runner.sweep_w1", [&] { r1 = sweep(art, spec, 1); });
    checkSweep(r2, spec, out);
    checkSweep(r1, spec, out);
    bool same = r1.records.size() == r2.records.size();
    for (std::size_t i = 0; same && i < r1.records.size(); ++i) {
        const auto& a = r1.records[i].metrics;
        const auto& b = r2.records[i].metrics;
        same = a.exd == b.exd && a.exec_time == b.exec_time &&
               a.periods == b.periods;
    }
    out.check("runner.sweep_w1_equals_w2", same);

    LayerSubject subject;
    subject.artifacts = &art;
    subject.recipe = recipe;
    subject.fleet = stressConfig(o.seed, o.smoke);
    subject.work_dir = o.work_dir;
    subject.smoke = o.smoke;
    const LayerCosts c = profileLayers(subject, log, out);

    // Outside-in attribution of the one-worker sweep: every run's
    // periods at the PARSEC plant cost plus the controller's own share.
    const double explained =
        sweepPeriods(r1) * (c.board_period_parsec_s + c.controllers_self_s);
    addLayerDesign(log, out);
    out.add("runner.run_w1_s", w1, "s");
    out.add("runner.parallel_efficiency", w1 / (kPoolWorkers * w2),
            "frac");
    out.add("runner.unattributed_frac", 1.0 - explained / w1, "frac");
    out.line("workers 1 vs " + std::to_string(kPoolWorkers) + ": " +
             fmt(w1) + " s vs " + fmt(w2) + " s; layers explain " +
             fmt(explained) + " s of the 1-worker sweep");
    reportPaper(art, r2, spec, w2, kPoolWorkers, out);
    log.write(o.work_dir + "/spans.jsonl");
    return out;
}

}  // namespace

Result
runWorkload(const Options& o)
{
    if (o.workload == "fleet_stress") {
        const FleetSpec spec = stressSpec(o.seed, o.smoke);
        return o.trace ? fleetWorkloadTraced(o, spec) : fleetWorkload(o, spec);
    }
    if (o.workload == "paper_repro") {
        return o.trace ? paperWorkloadTraced(o) : paperWorkload(o);
    }
    throw std::invalid_argument("unknown workload: " + o.workload);
}

}  // namespace perfbench
