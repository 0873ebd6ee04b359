#include "platform/board.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"

namespace yukta::platform {

namespace {

/** Per-thread execution rate in giga-instructions per second. */
double
threadRate(const ThreadInfo& info, ClusterId cluster, double freq,
           double share, double mux)
{
    // Roofline-ish: time per (normalized) instruction is a core part
    // scaling with 1/f plus a memory part pinned to the 1 GHz-
    // equivalent memory subsystem.
    double m = std::clamp(info.mem_boundness, 0.0, 0.95);
    double rate_ghz = 1.0 / ((1.0 - m) / freq + m / 1.0);
    double ipc =
        cluster == ClusterId::kBig ? info.ipc_big : info.ipc_little;
    return ipc * rate_ghz * share * mux;
}

/** Mean busy share of a cluster's powered cores. */
double
clusterUtil(const std::vector<std::size_t>& per_core)
{
    if (per_core.empty()) {
        return 0.0;
    }
    double u = 0.0;
    for (std::size_t n : per_core) {
        u += n > 0 ? 1.0 : 0.05;  // idle-but-on cores sip power
    }
    return u / static_cast<double>(per_core.size());
}

/** Summed workload switching activity of the threads on each cluster. */
struct ActivitySums
{
    double big = 0.0;
    double little = 0.0;
    std::size_t n_big = 0;
    std::size_t n_little = 0;

    void add(ClusterId c, double activity)
    {
        if (c == ClusterId::kBig) {
            big += activity;
            ++n_big;
        } else {
            little += activity;
            ++n_little;
        }
    }

    /** Average activity over the cluster's threads (1 when none). */
    static double mean(double sum, std::size_t n)
    {
        return n > 0 ? sum / static_cast<double>(n) : 1.0;
    }
};

}  // namespace

Board::Board(BoardConfig cfg, Workload workload, std::uint32_t seed)
    : cfg_(cfg), dvfs_big_(cfg.big), dvfs_little_(cfg.little),
      power_big_(cfg.big, dvfs_big_), power_little_(cfg.little, dvfs_little_),
      thermal_(cfg.thermal), sensors_(cfg.sensors, cfg.thermal.ambient, seed),
      tmu_(cfg.tmu, cfg_, dvfs_big_, dvfs_little_),
      workload_(std::move(workload))
{
    requested_.big_cores = cfg_.big.num_cores;
    requested_.little_cores = cfg_.little.num_cores;
    requested_.freq_big = dvfs_big_.maxFreq();
    requested_.freq_little = dvfs_little_.maxFreq();
    refreshApplied();
    refreshPlacement(true);
}

void
Board::applyHardwareInputs(const HardwareInputs& in)
{
    // A non-finite frequency request is rejected field-wise and the
    // previous setting kept, the way a sysfs write of garbage fails
    // with -EINVAL and leaves the governor untouched. This keeps the
    // platform NaN-free even when an (unsupervised) controller was
    // poisoned by corrupted telemetry.
    HardwareInputs want = in;
    if (!std::isfinite(want.freq_big)) {
        want.freq_big = requested_.freq_big;
        ++rejected_inputs_;
    }
    if (!std::isfinite(want.freq_little)) {
        want.freq_little = requested_.freq_little;
        ++rejected_inputs_;
    }
    requested_ = want;
    // Quantize/clamp like cpufreq + hotplug would.
    requested_.big_cores =
        std::clamp<std::size_t>(want.big_cores, 1, cfg_.big.num_cores);
    requested_.little_cores =
        std::clamp<std::size_t>(want.little_cores, 1,
                                cfg_.little.num_cores);
    requested_.freq_big = dvfs_big_.quantize(want.freq_big);
    requested_.freq_little = dvfs_little_.quantize(want.freq_little);
    refreshApplied();
    refreshPlacement(true);
    migration_stall_left_ = cfg_.migration_stall;
}

void
Board::applyPlacementPolicy(const PlacementPolicy& policy)
{
    // Same rejection rule as applyHardwareInputs: placeThreads rounds
    // and casts the policy knobs, so letting a NaN through would be
    // undefined behavior, not just a bad placement.
    PlacementPolicy want = policy;
    if (!std::isfinite(want.threads_big)) {
        want.threads_big = policy_.threads_big;
        ++rejected_inputs_;
    }
    if (!std::isfinite(want.tpc_big)) {
        want.tpc_big = policy_.tpc_big;
        ++rejected_inputs_;
    }
    if (!std::isfinite(want.tpc_little)) {
        want.tpc_little = policy_.tpc_little;
        ++rejected_inputs_;
    }
    policy_ = want;
    refreshPlacement(true);
    migration_stall_left_ = cfg_.migration_stall;
}

SensorReadings
Board::readings() const
{
    SensorReadings r;
    r.p_big = sensors_.powerBig();
    r.p_little = sensors_.powerLittle();
    r.temp = sensors_.temperature();
    r.instr_big = counters_.instr_big;
    r.instr_little = counters_.instr_little;
    return r;
}

void
Board::refreshApplied()
{
    const EmergencyCaps& caps = tmu_.caps();
    applied_ = requested_;
    applied_.big_cores = std::min(applied_.big_cores, caps.max_big_cores);
    applied_.big_cores = std::max<std::size_t>(applied_.big_cores, 1);
    applied_.freq_big = dvfs_big_.quantize(
        std::min(requested_.freq_big, caps.freq_cap_big));
    applied_.freq_little = dvfs_little_.quantize(
        std::min(requested_.freq_little, caps.freq_cap_little));
}

void
Board::refreshPlacement(bool force)
{
    std::size_t version = workload_.placementVersion();
    if (!force && version == placement_version_) {
        return;
    }
    placement_version_ = version;
    std::size_t threads = workload_.numRunnableThreads();
    placement_ = placeThreads(policy_, threads, applied_.big_cores,
                              applied_.little_cores);
    cachePlacementFactors();
}

void
Board::cachePlacementFactors()
{
    std::size_t n = placement_.thread_cluster.size();
    thread_share_.resize(n);
    thread_mux_.resize(n);
    for (std::size_t t = 0; t < n; ++t) {
        std::size_t core = placement_.thread_core[t];
        std::size_t sharers =
            placement_.thread_cluster[t] == ClusterId::kBig
                ? placement_.big_core_threads[core]
                : placement_.little_core_threads[core];
        thread_share_[t] =
            sharers > 0 ? 1.0 / static_cast<double>(sharers) : 0.0;
        // Small multiplexing overhead per extra thread on the core.
        thread_mux_[t] = std::pow(0.97, static_cast<double>(sharers - 1));
    }
    util_big_ = clusterUtil(placement_.big_core_threads);
    util_little_ = clusterUtil(placement_.little_core_threads);
}

double
Board::spareCompute(ClusterId c) const
{
    std::size_t on = c == ClusterId::kBig ? applied_.big_cores
                                          : applied_.little_cores;
    return platform::spareCompute(placement_, c, on);
}

void
Board::enableTrace(double interval)
{
    if (interval <= 0.0) {
        throw std::invalid_argument("Board::enableTrace: bad interval");
    }
    trace_interval_ = interval;
    trace_timer_ = 0.0;
    trace_instr_mark_ = counters_.total();
}

void
Board::run(double seconds)
{
    long steps = std::lround(seconds / cfg_.time_step);
    for (long i = 0; i < steps && !done(); ++i) {
        stepOnce();
    }
}

void
Board::stepOnce()
{
    double dt = cfg_.time_step;
    refreshPlacement(false);

    // --- Execute threads for dt. ---
    std::size_t threads = workload_.numRunnableThreads();
    double stall_factor = migration_stall_left_ > 0.0 ? 0.2 : 1.0;
    migration_stall_left_ = std::max(0.0, migration_stall_left_ - dt);

    // Pass 1: natural execution rate per thread from its core
    // assignment, and each cluster's switching activity.
    std::size_t nmap = std::min(threads, placement_.thread_cluster.size());
    rate_scratch_.assign(nmap, 0.0);
    info_scratch_.clear();
    // One barrier group per application instance.
    min_rate_scratch_.assign(workload_.numInstances(), 1e300);
    ActivitySums activity;
    for (std::size_t t = 0; t < nmap; ++t) {
        ClusterId c = placement_.thread_cluster[t];
        double f = c == ClusterId::kBig ? applied_.freq_big
                                        : applied_.freq_little;
        ThreadInfo info = workload_.threadInfo(t);
        double rate = threadRate(info, c, f, thread_share_[t],
                                 thread_mux_[t]) *
                      stall_factor;
        rate_scratch_[t] = rate;
        info_scratch_.push_back(info);
        if (info.barrier_coupling > 0.0) {
            double& slowest = min_rate_scratch_[info.instance];
            slowest = std::min(slowest, rate);
        }
        activity.add(c, info.activity);
    }

    // Pass 2: iteration-level barriers drag coupled threads toward
    // their slowest sibling, then retire the work.
    double instr_big = 0.0;
    double instr_little = 0.0;
    bool replaced = false;
    for (std::size_t t = 0; t < nmap; ++t) {
        const ThreadInfo& info = info_scratch_[t];
        double rate = rate_scratch_[t];
        if (info.barrier_coupling > 0.0) {
            double slowest = min_rate_scratch_[info.instance];
            if (slowest < rate) {
                rate = (1.0 - info.barrier_coupling) * rate +
                       info.barrier_coupling * slowest;
            }
        }
        double work = rate * dt;  // giga-instructions this step
        if (placement_.thread_cluster[t] == ClusterId::kBig) {
            instr_big += work;
        } else {
            instr_little += work;
        }
        workload_.retire(t, work);
        if (workload_.placementVersion() != placement_version_) {
            // Phase change mid-step: stop executing with a stale map.
            refreshPlacement(false);
            replaced = true;
            break;
        }
    }
    counters_.instr_big += instr_big;
    counters_.instr_little += instr_little;

    // --- Power. ---
    if (replaced) {
        // Power sees the post-change board: re-read the activity of
        // the new runnable set under its new placement.
        activity = ActivitySums{};
        std::size_t n =
            std::min(threads, placement_.thread_cluster.size());
        for (std::size_t t = 0; t < n; ++t) {
            activity.add(placement_.thread_cluster[t],
                         workload_.threadInfo(t).activity);
        }
    }

    ClusterActivity act_big;
    act_big.cores_on = applied_.big_cores;
    act_big.freq = applied_.freq_big;
    act_big.avg_utilization = util_big_;
    act_big.activity = ActivitySums::mean(activity.big, activity.n_big);

    ClusterActivity act_little;
    act_little.cores_on = applied_.little_cores;
    act_little.freq = applied_.freq_little;
    act_little.avg_utilization = util_little_;
    act_little.activity =
        ActivitySums::mean(activity.little, activity.n_little);

    double temp = thermal_.hotspot();
    true_p_big_ = power_big_.clusterPower(act_big, temp);
    true_p_little_ = power_little_.clusterPower(act_little, temp);
    if (drift_active_) {
        // Plant drift: the silicon draws more (or less) than the
        // nominal model for the same operating point. Applied before
        // energy/thermal/TMU/sensing so the whole physical chain --
        // and only the physical chain -- sees it.
        true_p_big_ *= drift_scale_;
        true_p_little_ *= drift_scale_;
    }
    energy_ += (true_p_big_ + true_p_little_) * dt;

    // --- Thermal. ---
    double weighted = true_p_big_ * cfg_.big.thermal_weight +
                      true_p_little_ * cfg_.little.thermal_weight;
    thermal_.step(weighted, dt);

    // --- Emergency heuristics (TMU). ---
    EmergencyCaps before = tmu_.caps();
    EmergencyCaps caps =
        tmu_.step(dt, thermal_.hotspot(), true_p_big_, true_p_little_);
    if (caps.freq_cap_big != before.freq_cap_big ||
        caps.freq_cap_little != before.freq_cap_little ||
        caps.max_big_cores != before.max_big_cores) {
        refreshApplied();
        refreshPlacement(true);
        if (event_trace_ != nullptr) {
            obs::TraceEvent ev = event_trace_->makeEvent("platform", "tmu");
            ev.integer("active", caps.active ? 1 : 0)
                .num("freq_cap_big", caps.freq_cap_big)
                .num("freq_cap_little", caps.freq_cap_little)
                .integer("max_big_cores",
                         static_cast<long long>(caps.max_big_cores))
                .num("temp", thermal_.hotspot())
                .num("p_big", true_p_big_);
            event_trace_->record(std::move(ev));
        }
    }

    // --- Sensors. ---
    sensors_.step(dt, true_p_big_, true_p_little_, thermal_.hotspot());

    // --- Constraint-violation accounting (true state, not sensed).
    if (true_p_big_ > cfg_.power_limit_big ||
        true_p_little_ > cfg_.power_limit_little ||
        thermal_.hotspot() > cfg_.temp_limit) {
        violation_time_ += dt;
    }

    time_ += dt;

    // --- Trace. ---
    if (trace_interval_ > 0.0) {
        trace_timer_ += dt;
        if (trace_timer_ >= trace_interval_) {
            TraceSample s;
            s.time = time_;
            s.p_big = true_p_big_;
            s.p_little = true_p_little_;
            s.temp = thermal_.hotspot();
            s.bips = (counters_.total() - trace_instr_mark_) / trace_timer_;
            s.f_big = applied_.freq_big;
            s.f_little = applied_.freq_little;
            s.big_cores = applied_.big_cores;
            s.little_cores = applied_.little_cores;
            s.threads = workload_.numRunnableThreads();
            s.emergency = caps.active;
            trace_.push_back(s);
            trace_timer_ = 0.0;
            trace_instr_mark_ = counters_.total();
        }
    }
}

namespace {

std::vector<std::uint64_t> toU64(const std::vector<std::size_t>& v)
{
    return {v.begin(), v.end()};
}

std::vector<std::size_t> fromU64(const std::vector<std::uint64_t>& v)
{
    return {v.begin(), v.end()};
}

}  // namespace

void
Board::setPowerDriftScale(double scale)
{
    if (!(scale > 0.0)) {
        throw std::invalid_argument(
            "Board::setPowerDriftScale: scale must be positive");
    }
    // Exactly 1.0 means "no drift configured" -- a deliberate exact
    // sentinel, not a numeric comparison.
    drift_active_ = scale != 1.0;  // yukta-lint: allow(float-eq)
    drift_scale_ = scale;
}

void
Board::save(obs::StateWriter& w) const
{
    thermal_.save(w);
    sensors_.save(w);
    tmu_.save(w);
    workload_.save(w);

    w.u64("board.req.big_cores", requested_.big_cores);
    w.u64("board.req.little_cores", requested_.little_cores);
    w.f64("board.req.freq_big", requested_.freq_big);
    w.f64("board.req.freq_little", requested_.freq_little);
    w.u64("board.app.big_cores", applied_.big_cores);
    w.u64("board.app.little_cores", applied_.little_cores);
    w.f64("board.app.freq_big", applied_.freq_big);
    w.f64("board.app.freq_little", applied_.freq_little);

    w.f64("board.policy.threads_big", policy_.threads_big);
    w.f64("board.policy.tpc_big", policy_.tpc_big);
    w.f64("board.policy.tpc_little", policy_.tpc_little);

    w.u64vec("board.place.big", toU64(placement_.big_core_threads));
    w.u64vec("board.place.little", toU64(placement_.little_core_threads));
    std::vector<std::uint64_t> clusters;
    clusters.reserve(placement_.thread_cluster.size());
    for (ClusterId c : placement_.thread_cluster) {
        clusters.push_back(c == ClusterId::kBig ? 1 : 0);
    }
    w.u64vec("board.place.cluster", clusters);
    w.u64vec("board.place.core", toU64(placement_.thread_core));
    w.u64("board.place.version", placement_version_);

    w.f64("board.time", time_);
    w.f64("board.energy", energy_);
    w.f64("board.true_p_big", true_p_big_);
    w.f64("board.true_p_little", true_p_little_);
    w.f64("board.migration_stall", migration_stall_left_);
    w.f64("board.violation_time", violation_time_);
    w.u64("board.rejected_inputs", rejected_inputs_);
    w.f64("board.instr_big", counters_.instr_big);
    w.f64("board.instr_little", counters_.instr_little);
    w.boolean("board.drift_active", drift_active_);
    w.f64("board.drift_scale", drift_scale_);
}

void
Board::load(obs::StateReader& r)
{
    thermal_.load(r);
    sensors_.load(r);
    tmu_.load(r);
    workload_.load(r);

    requested_.big_cores = r.u64("board.req.big_cores");
    requested_.little_cores = r.u64("board.req.little_cores");
    requested_.freq_big = r.f64("board.req.freq_big");
    requested_.freq_little = r.f64("board.req.freq_little");
    applied_.big_cores = r.u64("board.app.big_cores");
    applied_.little_cores = r.u64("board.app.little_cores");
    applied_.freq_big = r.f64("board.app.freq_big");
    applied_.freq_little = r.f64("board.app.freq_little");

    policy_.threads_big = r.f64("board.policy.threads_big");
    policy_.tpc_big = r.f64("board.policy.tpc_big");
    policy_.tpc_little = r.f64("board.policy.tpc_little");

    placement_.big_core_threads = fromU64(r.u64vec("board.place.big"));
    placement_.little_core_threads =
        fromU64(r.u64vec("board.place.little"));
    const auto clusters = r.u64vec("board.place.cluster");
    placement_.thread_cluster.clear();
    placement_.thread_cluster.reserve(clusters.size());
    for (const std::uint64_t c : clusters) {
        placement_.thread_cluster.push_back(c != 0 ? ClusterId::kBig
                                                   : ClusterId::kLittle);
    }
    placement_.thread_core = fromU64(r.u64vec("board.place.core"));
    placement_version_ = r.u64("board.place.version");
    // Every thread must sit on a core of its cluster before the
    // per-thread factors index the per-core counts.
    bool consistent = placement_.thread_core.size() ==
                      placement_.thread_cluster.size();
    for (std::size_t t = 0; consistent && t < placement_.thread_core.size();
         ++t) {
        consistent = placement_.thread_core[t] <
                     (placement_.thread_cluster[t] == ClusterId::kBig
                          ? placement_.big_core_threads.size()
                          : placement_.little_core_threads.size());
    }
    if (!consistent) {
        throw std::runtime_error("Board::load: inconsistent placement");
    }
    cachePlacementFactors();

    time_ = r.f64("board.time");
    energy_ = r.f64("board.energy");
    true_p_big_ = r.f64("board.true_p_big");
    true_p_little_ = r.f64("board.true_p_little");
    migration_stall_left_ = r.f64("board.migration_stall");
    violation_time_ = r.f64("board.violation_time");
    rejected_inputs_ = r.u64("board.rejected_inputs");
    counters_.instr_big = r.f64("board.instr_big");
    counters_.instr_little = r.f64("board.instr_little");
    drift_active_ = r.boolean("board.drift_active");
    drift_scale_ = r.f64("board.drift_scale");
}

}  // namespace yukta::platform
