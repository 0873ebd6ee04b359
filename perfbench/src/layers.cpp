/**
 * @file
 * The traced run's per-layer profile: each layer's public entry points
 * timed from outside, on the workload's own artifacts and fleet
 * configuration. Per-call costs are medians over several batches.
 */

#include <chrono>
#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "bench.h"
#include "control/interconnect.h"
#include "controllers/controller.h"
#include "core/adapt.h"
#include "core/design_flow.h"
#include "fleet/admission.h"
#include "fleet/arrivals.h"
#include "fleet/cluster.h"
#include "platform/apps.h"
#include "platform/board.h"
#include "robust/hinf.h"
#include "robust/mu.h"
#include "robust/ssv_design.h"

namespace perfbench {

using namespace yukta;

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Seconds per call of @p f, as the median over @p batches batches of
 * @p calls calls each, inside one span named @p name. @p f returns
 * false to stop early (e.g. a workload ran to completion).
 */
template <class F>
double
perCall(SpanLog& log, const std::string& name, int batches, int calls, F&& f)
{
    Scope scope(log, name);
    std::vector<double> samples;
    for (int b = 0; b < batches; ++b) {
        int done = 0;
        const auto t0 = Clock::now();
        while (done < calls && f(done)) {
            ++done;
        }
        const double dt = std::chrono::duration<double>(Clock::now() - t0)
                              .count();
        if (done > 0) {
            samples.push_back(dt / done);
        }
        if (done < calls) {
            break;
        }
    }
    if (samples.empty()) {
        throw std::runtime_error(name + ": nothing to time");
    }
    return median(samples);
}

platform::Workload
serviceWorkload(const fleet::FleetConfig& fc)
{
    return platform::Workload(platform::AppCatalog::makeServiceApp(
        fc.service.threads, fc.service.ipc_big, fc.service.mem_boundness));
}

/** Board::run over one control period, at the held operating point. */
double
boardPeriod(SpanLog& log, const std::string& name,
            const platform::BoardConfig& cfg, platform::Workload w,
            int batches, int calls)
{
    platform::Board board(cfg, std::move(w), 7);
    for (int i = 0; i < 4; ++i) {
        board.run(controllers::kControlPeriod);
    }
    return perCall(log, name, batches, calls, [&](int) {
        if (board.done()) {
            return false;
        }
        board.run(controllers::kControlPeriod);
        return true;
    });
}

/** Per-period seconds of a control step and of its plant alone. */
struct StepCost
{
    double step_s = 0.0;
    double plant_s = 0.0;
    bool replay_exact = true;  ///< Replayed plant ended in the same state.
};

bool
sameHardware(const platform::HardwareInputs& a,
              const platform::HardwareInputs& b)
{
    return a.big_cores == b.big_cores && a.little_cores == b.little_cores &&
           a.freq_big == b.freq_big && a.freq_little == b.freq_little;
}

bool
samePolicy(const platform::PlacementPolicy& a,
           const platform::PlacementPolicy& b)
{
    return a.threads_big == b.threads_big && a.tpc_big == b.tpc_big &&
           a.tpc_little == b.tpc_little;
}

/**
 * MultilayerSystem::stepPeriod on the service app (Yukta full), each
 * period followed by a bare Board replaying the commands the system
 * just applied. The plant share is thus timed on the very operating
 * points the controllers chose, interleaved with the steps so host
 * speed drifts hit both alike. Median of @p trials trials of
 * @p periods periods.
 */
StepCost
stepAndReplay(SpanLog& log, const std::string& name, const LayerSubject& s,
              bool supervised, int trials, int periods)
{
    Scope scope(log, name);
    std::vector<double> step;
    std::vector<double> plant;
    bool exact = true;
    for (int t = 0; t < trials; ++t) {
        auto sys = core::makeSystem(core::Scheme::kYuktaFull, *s.artifacts,
                                    serviceWorkload(s.fleet), 7);
        if (supervised) {
            sys.enableSupervisor();
        }
        platform::Board board(s.artifacts->cfg, serviceWorkload(s.fleet), 7);
        platform::HardwareInputs hw;
        platform::PlacementPolicy policy;
        double step_s = 0.0;
        double plant_s = 0.0;
        for (int i = 0; i < periods; ++i) {
            const auto t0 = Clock::now();
            sys.stepPeriod();
            const auto t1 = Clock::now();
            if (!sameHardware(hw, sys.lastHardware())) {
                hw = sys.lastHardware();
                board.applyHardwareInputs(hw);
            }
            if (!samePolicy(policy, sys.lastPolicy())) {
                policy = sys.lastPolicy();
                board.applyPlacementPolicy(policy);
            }
            board.run(controllers::kControlPeriod);
            const auto t2 = Clock::now();
            step_s += std::chrono::duration<double>(t1 - t0).count();
            plant_s += std::chrono::duration<double>(t2 - t1).count();
        }
        exact = exact && board.energy() == sys.board().energy();
        step.push_back(step_s / periods);
        plant.push_back(plant_s / periods);
    }
    return {median(step), median(plant), exact};
}

/** The SSV synthesis spec designSsvLayer builds for @p d. */
robust::SsvSpec
ssvSpecOf(const core::LayerDesign& d, std::size_t num_external,
          const robust::DkOptions& dk)
{
    robust::SsvSpec ssv;
    ssv.model = d.model.toStateSpace();
    ssv.num_inputs = d.spec.inputs.size();
    ssv.num_external = num_external;
    for (const core::SignalSpec& in : d.spec.inputs) {
        ssv.in_min.push_back(in.min);
        ssv.in_max.push_back(in.max);
        ssv.in_step.push_back(in.step);
        ssv.in_weight.push_back(in.weight);
    }
    ssv.perf_dc_boost = d.spec.perf_boost;
    for (const core::OutputSpec& out : d.spec.outputs) {
        ssv.out_bound.push_back(out.bound());
        ssv.out_range.push_back(out.range);
        ssv.out_boost.push_back(out.critical ? 1.0 : ssv.perf_dc_boost);
    }
    ssv.guardband = d.spec.guardband;
    ssv.max_order = d.spec.max_order;
    ssv.perf_corner = 1.2;
    ssv.unc_corner = 3.0;
    ssv.dk = dk;
    return ssv;
}

}  // namespace

LayerCosts
profileLayers(const LayerSubject& s, SpanLog& log, Result& out)
{
    Scope profile(log, "layers.profile");
    const core::Artifacts& art = *s.artifacts;
    const int batches = 5;
    const int k = s.smoke ? 1 : 20;  // Batch-size multiplier.
    LayerCosts c;
    // Every probed result feeds this sum, checked finite at the end, so
    // no timed call is dead code.
    double sink = 0.0;

    // --- platform ---
    const double period_us = 1e6 * boardPeriod(
        log, "platform.board_period", art.cfg, serviceWorkload(s.fleet),
        batches, 5 * k);
    c.board_period_parsec_s = boardPeriod(
        log, "platform.board_period_parsec", art.cfg,
        platform::Workload(platform::AppCatalog::get(
            platform::AppCatalog::parsecApps().front())),
        batches, 5 * k);
    out.add("platform.board_period_us", period_us, "us");
    out.add("platform.board_period_parsec_us", 1e6 * c.board_period_parsec_s,
            "us");

    // --- controllers ---
    const StepCost step = stepAndReplay(log, "controllers.step_period", s,
                                        false, 5, 20 * k);
    out.check("controllers.replay_reproduces_plant", step.replay_exact);
    c.step_period_s = step.step_s;
    c.controllers_self_s = step.step_s - step.plant_s;
    c.supervised_step_period_s =
        stepAndReplay(log, "controllers.supervised_step_period", s, true, 3,
                      20 * k)
            .step_s;
    {
        auto rt = core::makeSsvRuntime(art.hw_ssv);
        linalg::Vector dev(rt.numOutputsTracked());
        linalg::Vector ext(rt.numExternal());
        const linalg::Vector& u = art.training.hw.u.back();
        for (std::size_t i = 0; i < ext.size(); ++i) {
            ext[i] = u[rt.numInputs() + i];
        }
        const double ns = 1e9 * perCall(
            log, "controllers.ssv_invoke", batches, 500 * k, [&](int i) {
                for (std::size_t j = 0; j < dev.size(); ++j) {
                    dev[j] = 0.01 * std::sin(0.1 * i + static_cast<double>(j));
                }
                sink += rt.invoke(dev, ext)[0];
                return true;
            });
        out.add("controllers.step_period_us", 1e6 * c.step_period_s, "us");
        out.add("controllers.self_us", 1e6 * c.controllers_self_s, "us");
        out.add("controllers.ssv_invoke_ns", ns, "ns");
        out.add("controllers.supervised_step_period_us",
                1e6 * c.supervised_step_period_s, "us");
    }

    // --- core ---
    out.add("core.make_system_ms",
            1e3 * perCall(log, "core.make_system", batches, 5 * k, [&](int) {
                auto sys = core::makeSystem(core::Scheme::kYuktaFull, art,
                                            serviceWorkload(s.fleet), 7);
                sink += static_cast<double>(sys.periods());
                return true;
            }),
            "ms");
    {
        auto adapter =
            core::makeHwAdapter(art, fleet::defaultFleetAdaptOptions());
        const sysid::IoData& io = art.training.hw;
        const std::size_t rows = io.u.size();
        std::size_t row = 0;
        c.adapt_observe_s = perCall(
            log, "core.adapt_observe", batches, 25 * k, [&](int) {
                adapter->observe(io.u[row % rows], io.y[row % rows]);
                ++row;
                return true;
            });
        out.add("core.adapt_observe_ns", 1e9 * c.adapt_observe_s, "ns");
    }

    // --- sysid ---
    out.add("sysid.arx_identify_ms",
            1e3 * perCall(log, "sysid.arx_identify", 3, 1, [&](int) {
                auto m = sysid::identifyArx(art.training.hw,
                                            controllers::kControlPeriod,
                                            core::DesignOptions{}.arx);
                sink += static_cast<double>(m.numOutputs());
                return true;
            }),
            "ms");

    // --- robust: one K-step and one D-step of the HW SSV D-K loop ---
    {
        const robust::SsvSpec ssv = ssvSpecOf(art.hw_ssv, 3, s.recipe.dk);
        const control::StateSpace pc = robust::buildGeneralizedPlant(ssv, true);
        const robust::PlantPartition part = robust::ssvPartition(ssv);
        std::optional<robust::HinfResult> kstep;
        const double hinf_s = timed(log, "robust.hinf_synthesize", [&] {
            kstep = robust::hinfSynthesize(pc, part, ssv.dk.gamma_lo,
                                           ssv.dk.gamma_hi,
                                           ssv.dk.bisection_steps);
        });
        out.check("robust.k_step_found", kstep.has_value());
        double mu_s = 0.0;
        if (kstep) {
            const control::StateSpace n =
                control::lftLower(pc, kstep->k, part.nz, part.nw);
            const robust::BlockStructure structure =
                robust::ssvBlockStructure(ssv);
            mu_s = timed(log, "robust.mu_sweep", [&] {
                sink += robust::muFrequencySweep(n, structure, ssv.dk.mu_grid)
                             .peak;
            });
        }
        out.add("robust.hinf_synth_ms", 1e3 * hinf_s, "ms");
        out.add("robust.mu_sweep_ms", 1e3 * mu_s, "ms");
        out.add("robust.dk_iterations", art.hw_ssv.controller.dk_iterations,
                "count");
    }

    // --- fleet coordinator ---
    const fleet::FleetConfig& fc = s.fleet;
    const int epochs = static_cast<int>(fc.sim_seconds / 0.5);
    const fleet::ArrivalGenerator gen(fc.arrivals, fc.seed);
    std::vector<std::vector<fleet::Request>> offered(
        static_cast<std::size_t>(epochs));
    {
        Scope scope(log, "fleet.arrivals");
        for (int e = 0; e < epochs; ++e) {
            auto& batch = offered[static_cast<std::size_t>(e)];
            for (int b = 0; b < fc.boards; ++b) {
                auto a = gen.epochArrivals(b, e, 0.5 * e, 0.5);
                batch.insert(batch.end(), a.begin(), a.end());
            }
        }
        c.arrivals_per_epoch_s = scope.stop() / epochs;
    }
    out.add("fleet.arrivals_us_per_epoch", 1e6 * c.arrivals_per_epoch_s,
            "us");
    std::vector<double> queued(static_cast<std::size_t>(fc.boards), 0.0);
    {
        // Each board drains ~2 GI per epoch (4 BIPS over 500 ms).
        fleet::AdmissionController adm(fc.admission, fc.boards);
        long long routes = 0;
        Scope scope(log, "fleet.route");
        for (const auto& batch : offered) {
            for (double& q : queued) {
                q = std::max(0.0, q - 2.0);
            }
            for (const fleet::Request& r : batch) {
                sink += adm.route(r, queued);
                ++routes;
            }
        }
        c.route_s = scope.stop() / static_cast<double>(std::max(1LL, routes));
    }
    out.add("fleet.route_ns", 1e9 * c.route_s, "ns");
    {
        fleet::ClusterController cl(fc.cluster, art.cfg, fc.boards);
        std::vector<fleet::BoardTelemetry> tel(queued.size());
        for (std::size_t b = 0; b < tel.size(); ++b) {
            tel[b] = {queued[b], 1.0 + 0.01 * static_cast<double>(b % 7),
                      4.0, 3.0};
        }
        c.cluster_targets_s = perCall(
            log, "fleet.cluster_targets", batches, 5 * k, [&](int) {
                sink += cl.computeTargets(tel).front()[0];
                return true;
            });
    }
    out.add("fleet.cluster_targets_us", 1e6 * c.cluster_targets_s, "us");

    // --- obs: fleet checkpoint save/restore after a short run ---
    {
        fleet::FleetConfig small = fc;
        small.sim_seconds = 4.0;
        fleet::FleetSim sim(small, art);
        sim.run(1);
        const std::string path = s.work_dir + "/probe.ckpt";
        c.checkpoint_save_s = perCall(log, "obs.checkpoint_save", 3, 1,
                                      [&](int) {
                                          sim.saveCheckpoint(path);
                                          return true;
                                      });
        const double restore_s = perCall(log, "obs.checkpoint_restore", 3, 1,
                                         [&](int) {
                                             sim.restoreCheckpoint(path);
                                             return true;
                                         });
        out.add("obs.checkpoint_save_ms", 1e3 * c.checkpoint_save_s, "ms");
        out.add("obs.checkpoint_restore_ms", 1e3 * restore_s, "ms");
        out.add("obs.checkpoint_mb",
                static_cast<double>(std::filesystem::file_size(path)) / 1e6,
                "MB");
    }
    out.check("layers.probe_results_finite", std::isfinite(sink));
    return c;
}

}  // namespace perfbench
