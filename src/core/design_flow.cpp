#include "core/design_flow.h"

#include <stdexcept>

#include "control/lqg.h"
#include "core/cache.h"

namespace yukta::core {

using controllers::InputGrid;
using linalg::Matrix;
using linalg::Vector;

namespace {

std::vector<InputGrid>
gridsFromSpecs(const std::vector<SignalSpec>& inputs)
{
    std::vector<InputGrid> grids;
    grids.reserve(inputs.size());
    for (const SignalSpec& in : inputs) {
        grids.push_back({in.min, in.max, in.step});
    }
    return grids;
}

/** Strips the trailing @p num_external columns from each u sample. */
sysid::IoData
dropExternalColumns(const sysid::IoData& data, std::size_t num_external)
{
    sysid::IoData out;
    out.y = data.y;
    out.u.reserve(data.u.size());
    for (const Vector& u : data.u) {
        out.u.push_back(u.segment(0, u.size() - num_external));
    }
    return out;
}

}  // namespace

robust::SsvSpec
ssvSpecFor(const LayerSpec& spec, const sysid::ArxModel& model,
           std::size_t num_external, const robust::DkOptions& dk)
{
    robust::SsvSpec ssv;
    ssv.model = model.toStateSpace();
    ssv.num_inputs = spec.inputs.size();
    ssv.num_external = num_external;
    for (const SignalSpec& in : spec.inputs) {
        ssv.in_min.push_back(in.min);
        ssv.in_max.push_back(in.max);
        ssv.in_step.push_back(in.step);
        ssv.in_weight.push_back(in.weight);
    }
    ssv.perf_dc_boost = spec.perf_boost;
    for (const OutputSpec& out : spec.outputs) {
        ssv.out_bound.push_back(out.bound());
        ssv.out_range.push_back(out.range);
        // Critical outputs (powers/temperature) keep their declared
        // bound as-is: their bounds already sit near the actuator
        // quantization, and extra DC demand is infeasible.
        ssv.out_boost.push_back(out.critical ? 1.0 : ssv.perf_dc_boost);
    }
    ssv.guardband = spec.guardband;
    ssv.max_order = spec.max_order;
    // Moderate closed-loop bandwidth: the 500 ms loop with ~300 ms
    // sensor latency cannot support corners near Nyquist.
    ssv.perf_corner = 1.2;
    ssv.unc_corner = 3.0;
    ssv.dk = dk;
    return ssv;
}

std::optional<LayerDesign>
designSsvLayer(const LayerSpec& spec, const sysid::IoData& data,
               std::size_t num_external, const DesignOptions& options)
{
    if (data.u.empty() || data.u[0].size() !=
                              spec.inputs.size() + num_external) {
        throw std::invalid_argument(
            "designSsvLayer: data does not match the spec's inputs + "
            "external signals");
    }
    if (data.y.empty() || data.y[0].size() != spec.outputs.size()) {
        throw std::invalid_argument(
            "designSsvLayer: data does not match the spec's outputs");
    }

    LayerDesign design;
    design.spec = spec;

    // Step 3 of Fig. 3: black-box model from the training records.
    design.model =
        sysid::identifyArx(data, controllers::kControlPeriod, options.arx);
    design.fit = sysid::predictionFit(design.model, data);

    // Optional disk cache for the expensive synthesis step.
    if (!options.cache_key.empty()) {
        auto cached = loadSsvController(cachePath(options.cache_key));
        if (cached) {
            design.controller = std::move(*cached);
            return design;
        }
    }

    // Step 4: mu-synthesis from the spec.
    auto ctrl = robust::ssvSynthesize(
        ssvSpecFor(spec, design.model, num_external, options.dk));
    if (!ctrl) {
        return std::nullopt;
    }
    design.controller = std::move(*ctrl);

    if (!options.cache_key.empty()) {
        saveSsvController(cachePath(options.cache_key), design.controller);
    }
    return design;
}

controllers::SsvRuntime
makeSsvRuntime(const LayerDesign& design)
{
    std::size_t ni = design.spec.inputs.size();
    const Vector& mean = design.model.uMean();
    Vector u_mean = mean.segment(0, ni);
    Vector e_mean = mean.segment(ni, mean.size() - ni);
    return controllers::SsvRuntime(design.controller,
                                   gridsFromSpecs(design.spec.inputs),
                                   u_mean, e_mean);
}

std::optional<LqgDesign>
designLqgLayer(const std::vector<SignalSpec>& input_specs,
               const std::vector<double>& output_bounds,
               const sysid::IoData& data, std::size_t num_external,
               const DesignOptions& options)
{
    if (data.u.empty() ||
        data.u[0].size() != input_specs.size() + num_external) {
        throw std::invalid_argument("designLqgLayer: data/spec mismatch");
    }
    if (data.y.empty() || data.y[0].size() != output_bounds.size()) {
        throw std::invalid_argument("designLqgLayer: bad output bounds");
    }

    LqgDesign design;
    design.grids = gridsFromSpecs(input_specs);

    // LQG has no external-signal channel: identify over the actuated
    // inputs only.
    sysid::IoData own = num_external > 0
                            ? dropExternalColumns(data, num_external)
                            : data;
    design.model =
        sysid::identifyArx(own, controllers::kControlPeriod, options.arx);
    design.u_mean = design.model.uMean();

    if (!options.cache_key.empty()) {
        auto cached = loadStateSpace(cachePath(options.cache_key));
        if (cached) {
            design.controller = std::move(*cached);
            return design;
        }
    }

    control::StateSpace plant = design.model.toStateSpace();

    // Output weights comparable to the SSV bounds; input weights
    // comparable to the SSV input weights (Sec. VI-B).
    control::LqgWeights weights;
    std::size_t ny = output_bounds.size();
    Matrix wy(ny, ny);
    for (std::size_t i = 0; i < ny; ++i) {
        double b = std::max(output_bounds[i], 1e-6);
        wy(i, i) = 1.0 / (b * b);
    }
    weights.q = plant.c.transpose() * wy * plant.c;
    std::size_t nu = input_specs.size();
    Matrix wu(nu, nu);
    for (std::size_t i = 0; i < nu; ++i) {
        double range = input_specs[i].max - input_specs[i].min;
        double w = input_specs[i].weight / std::max(range, 1e-6);
        wu(i, i) = w * w;
    }
    weights.r = wu;
    weights.qn = Matrix::identity(plant.numStates());
    weights.rn = 0.1 * Matrix::identity(ny);

    auto k = control::lqgSynthesize(plant, weights);
    if (!k) {
        return std::nullopt;
    }
    design.controller = std::move(*k);

    if (!options.cache_key.empty()) {
        saveStateSpace(cachePath(options.cache_key), design.controller);
    }
    return design;
}

controllers::LqgRuntime
makeLqgRuntime(const LqgDesign& design)
{
    return controllers::LqgRuntime(design.controller, design.grids,
                                   design.u_mean);
}

}  // namespace yukta::core
