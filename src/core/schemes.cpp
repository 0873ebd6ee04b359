#include "core/schemes.h"

#include <future>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "controllers/heuristics.h"
#include "platform/board.h"
#include "platform/dvfs.h"

namespace yukta::core {

using controllers::MultilayerSystem;
using platform::Board;
using platform::DvfsTable;

std::string
schemeName(Scheme scheme)
{
    switch (scheme) {
      case Scheme::kCoordinatedHeuristic:
        return "Coordinated heuristic";
      case Scheme::kDecoupledHeuristic:
        return "Decoupled heuristic";
      case Scheme::kYuktaHwSsvOsHeuristic:
        return "Yukta: HW SSV+OS heuristic";
      case Scheme::kYuktaFull:
        return "Yukta: HW SSV+OS SSV";
      case Scheme::kDecoupledLqg:
        return "Decoupled HW LQG+OS LQG";
      case Scheme::kMonolithicLqg:
        return "Monolithic LQG";
    }
    return "unknown";
}

std::vector<Scheme>
allSchemes()
{
    return {Scheme::kCoordinatedHeuristic, Scheme::kDecoupledHeuristic,
            Scheme::kYuktaHwSsvOsHeuristic, Scheme::kYuktaFull,
            Scheme::kDecoupledLqg, Scheme::kMonolithicLqg};
}

namespace {

std::string
keyFor(const ArtifactOptions& opt, const std::string& layer)
{
    if (opt.cache_tag.empty()) {
        return "";
    }
    std::ostringstream os;
    os << opt.cache_tag << "_" << layer << "_gb"
       << static_cast<int>(100 * opt.hw_guardband) << "_ob"
       << static_cast<int>(100 * opt.os_guardband) << "_pb"
       << static_cast<int>(100 * opt.hw_perf_bound) << "_sb"
       << static_cast<int>(100 * opt.os_bound) << "_wh"
       << static_cast<int>(100 * opt.hw_input_weight) << "_wo"
       << static_cast<int>(100 * opt.os_input_weight);
    return os.str();
}

}  // namespace

Artifacts
buildArtifacts(const platform::BoardConfig& cfg,
               const ArtifactOptions& options)
{
    Artifacts art;
    art.cfg = cfg;
    art.training = runTrainingCampaign(cfg, options.training);

    // --- SSV layers (Tables II and III). ---
    LayerSpec hw_spec =
        hardwareLayerSpec(cfg, art.training.hw_ranges, options.hw_guardband,
                          options.hw_perf_bound, options.hw_input_weight);
    LayerSpec os_spec =
        softwareLayerSpec(art.training.os_ranges, options.os_guardband,
                          options.os_bound, options.os_input_weight);

    // The two layers share no state and write distinct cache files, so
    // the OS design runs on its own thread while this one designs HW.
    // Errors surface in the serial order, HW first: an std::async
    // future waits for its thread in its destructor, so a HW throw
    // still joins the OS design, and its outcome is read only after.
    DesignOptions hw_opts;
    hw_opts.dk = options.dk;
    hw_opts.cache_key = keyFor(options, "hwssv");
    DesignOptions os_opts;
    os_opts.dk = options.dk;
    os_opts.cache_key = keyFor(options, "osssv");
    auto os_job = std::async(std::launch::async, [&] {
        return designSsvLayer(os_spec, art.training.os, 4, os_opts);
    });
    auto hw = designSsvLayer(hw_spec, art.training.hw, 3, hw_opts);
    if (!hw) {
        throw std::runtime_error("buildArtifacts: HW SSV synthesis failed");
    }
    art.hw_ssv = std::move(*hw);
    auto os = os_job.get();
    if (!os) {
        throw std::runtime_error("buildArtifacts: OS SSV synthesis failed");
    }
    art.os_ssv = std::move(*os);

    // --- LQG baselines (Sec. VI-B). ---
    auto bounds = [](const LayerSpec& spec) {
        std::vector<double> b;
        for (const OutputSpec& o : spec.outputs) {
            b.push_back(o.bound());
        }
        return b;
    };

    DesignOptions lqg_hw_opts;
    lqg_hw_opts.cache_key = keyFor(options, "hwlqg");
    auto hw_lqg = designLqgLayer(hw_spec.inputs, bounds(hw_spec),
                                 art.training.hw, 3, lqg_hw_opts);
    if (!hw_lqg) {
        throw std::runtime_error("buildArtifacts: HW LQG synthesis failed");
    }
    art.hw_lqg = std::move(*hw_lqg);

    DesignOptions lqg_os_opts;
    lqg_os_opts.cache_key = keyFor(options, "oslqg");
    auto os_lqg = designLqgLayer(os_spec.inputs, bounds(os_spec),
                                 art.training.os, 4, lqg_os_opts);
    if (!os_lqg) {
        throw std::runtime_error("buildArtifacts: OS LQG synthesis failed");
    }
    art.os_lqg = std::move(*os_lqg);

    // Monolithic LQG: all 7 inputs and outputs in one loop.
    std::vector<SignalSpec> joint_inputs = hw_spec.inputs;
    for (const SignalSpec& s : os_spec.inputs) {
        joint_inputs.push_back(s);
    }
    std::vector<double> joint_bounds = bounds(hw_spec);
    for (double b : bounds(os_spec)) {
        joint_bounds.push_back(b);
    }
    DesignOptions mono_opts;
    mono_opts.cache_key = keyFor(options, "monolqg");
    auto mono = designLqgLayer(joint_inputs, joint_bounds,
                               art.training.joint, 0, mono_opts);
    if (!mono) {
        throw std::runtime_error(
            "buildArtifacts: monolithic LQG synthesis failed");
    }
    art.mono_lqg = std::move(*mono);

    return art;
}

MultilayerSystem
makeSystem(Scheme scheme, const Artifacts& art, platform::Workload workload,
           std::uint32_t seed)
{
    const platform::BoardConfig& cfg = art.cfg;
    Board board(cfg, std::move(workload), seed);
    DvfsTable big(cfg.big);
    DvfsTable little(cfg.little);

    using namespace controllers;
    switch (scheme) {
      case Scheme::kCoordinatedHeuristic:
        return MultilayerSystem(
            std::move(board),
            std::make_unique<CoordinatedHwHeuristic>(cfg, big, little),
            std::make_unique<CoordinatedOsHeuristic>(cfg));

      case Scheme::kDecoupledHeuristic:
        return MultilayerSystem(
            std::move(board),
            std::make_unique<DecoupledHwHeuristic>(cfg, big, little),
            std::make_unique<DecoupledOsRoundRobin>(cfg));

      case Scheme::kYuktaHwSsvOsHeuristic:
        return MultilayerSystem(
            std::move(board),
            std::make_unique<SsvHwController>(makeSsvRuntime(art.hw_ssv),
                                              makeHwOptimizer(cfg)),
            std::make_unique<CoordinatedOsHeuristic>(cfg));

      case Scheme::kYuktaFull:
        return MultilayerSystem(
            std::move(board),
            std::make_unique<SsvHwController>(makeSsvRuntime(art.hw_ssv),
                                              makeHwOptimizer(cfg)),
            std::make_unique<SsvOsController>(makeSsvRuntime(art.os_ssv),
                                              makeOsOptimizer()));

      case Scheme::kDecoupledLqg:
        return MultilayerSystem(
            std::move(board),
            std::make_unique<LqgHwController>(makeLqgRuntime(art.hw_lqg),
                                              makeHwOptimizer(cfg)),
            std::make_unique<LqgOsController>(makeLqgRuntime(art.os_lqg),
                                              makeOsOptimizer()));

      case Scheme::kMonolithicLqg:
        return MultilayerSystem(
            std::move(board),
            std::make_unique<MonolithicLqgController>(
                makeLqgRuntime(art.mono_lqg),
                makeMonolithicOptimizer(cfg)));
    }
    throw std::invalid_argument("makeSystem: unknown scheme");
}

}  // namespace yukta::core
