#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "bench.h"
#include "core/design_flow.h"
#include "core/spec.h"
#include "platform/config.h"

namespace perfbench {

using namespace yukta;

void
useCacheDir(const std::string& dir, bool fresh)
{
    if (fresh) {
        std::filesystem::remove_all(dir);
    }
    std::filesystem::create_directories(dir);
    ::setenv("YUKTA_CACHE_DIR", dir.c_str(), 1);
}

core::ArtifactOptions
fleetRecipe()
{
    // The recipe of fleet::fleetArtifacts(); the traced fleet runs
    // check that both give the same fleet digest.
    core::ArtifactOptions opt;
    opt.cache_tag = "golden";
    opt.training.apps = {"swaptions", "milc"};
    opt.training.seconds_per_app = 60.0;
    opt.dk.max_iterations = 1;
    opt.dk.mu_grid = 12;
    opt.dk.bisection_steps = 8;
    return opt;
}

core::ArtifactOptions
paperRecipe(bool smoke)
{
    // Tables II/III, default D-K and training campaign. The training
    // seed stays the paper's: a seeded campaign gives every seed its own
    // design, and the set-up time ranged over 33-49 s across five seeds.
    core::ArtifactOptions opt;
    opt.cache_tag = "paper";
    if (smoke) {
        opt.training.apps = {"swaptions", "milc"};
        opt.training.seconds_per_app = 30.0;
        opt.dk.max_iterations = 1;
        opt.dk.mu_grid = 8;
        opt.dk.bisection_steps = 6;
    }
    return opt;
}

core::Artifacts
designInSteps(const core::ArtifactOptions& opt, SpanLog& log)
{
    Scope flow(log, "core.design_flow");
    core::Artifacts art;
    art.cfg = platform::BoardConfig::odroidXu3();
    timed(log, "core.training", [&] {
        art.training = core::runTrainingCampaign(art.cfg, opt.training);
    });

    const core::LayerSpec hw_spec = core::hardwareLayerSpec(
        art.cfg, art.training.hw_ranges, opt.hw_guardband,
        opt.hw_perf_bound, opt.hw_input_weight);
    const core::LayerSpec os_spec = core::softwareLayerSpec(
        art.training.os_ranges, opt.os_guardband, opt.os_bound,
        opt.os_input_weight);

    core::DesignOptions ssv_opts;
    ssv_opts.dk = opt.dk;
    timed(log, "robust.hw_ssv", [&] {
        auto hw = core::designSsvLayer(hw_spec, art.training.hw, 3, ssv_opts);
        if (!hw) {
            throw std::runtime_error("HW SSV synthesis failed");
        }
        art.hw_ssv = std::move(*hw);
    });
    timed(log, "robust.os_ssv", [&] {
        auto os = core::designSsvLayer(os_spec, art.training.os, 4, ssv_opts);
        if (!os) {
            throw std::runtime_error("OS SSV synthesis failed");
        }
        art.os_ssv = std::move(*os);
    });

    auto bounds = [](const core::LayerSpec& spec) {
        std::vector<double> b;
        for (const core::OutputSpec& o : spec.outputs) {
            b.push_back(o.bound());
        }
        return b;
    };
    auto lqg = [](std::optional<core::LqgDesign> d) {
        if (!d) {
            throw std::runtime_error("LQG synthesis failed");
        }
        return std::move(*d);
    };
    timed(log, "robust.lqg", [&] {
        art.hw_lqg = lqg(core::designLqgLayer(hw_spec.inputs, bounds(hw_spec),
                                              art.training.hw, 3));
        art.os_lqg = lqg(core::designLqgLayer(os_spec.inputs, bounds(os_spec),
                                              art.training.os, 4));
        std::vector<core::SignalSpec> joint = hw_spec.inputs;
        joint.insert(joint.end(), os_spec.inputs.begin(),
                     os_spec.inputs.end());
        std::vector<double> joint_bounds = bounds(hw_spec);
        for (double b : bounds(os_spec)) {
            joint_bounds.push_back(b);
        }
        art.mono_lqg = lqg(core::designLqgLayer(joint, joint_bounds,
                                                art.training.joint, 0));
    });
    return art;
}

}  // namespace perfbench
