#include "controllers/ssv_runtime.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/contracts.h"
#include "linalg/qr.h"

namespace yukta::controllers {

using linalg::Vector;

double
InputGrid::quantize(double v) const
{
    YUKTA_REQUIRE(min <= max, "InputGrid: min ", min, " > max ", max);
    double clamped = std::clamp(v, min, max);
    if (step <= 0.0) {
        return clamped;
    }
    double snapped = min + step * std::round((clamped - min) / step);
    return std::clamp(snapped, min, max);
}

SsvRuntime::SsvRuntime(robust::SsvController ctrl,
                       std::vector<InputGrid> grids, Vector u_mean,
                       Vector e_mean)
    : ctrl_(std::move(ctrl)), grids_(std::move(grids)),
      u_mean_(std::move(u_mean)), e_mean_(std::move(e_mean))
{
    std::size_t ni = ctrl_.k.numOutputs();
    std::size_t ndy = ctrl_.k.numInputs();
    if (grids_.size() != ni || u_mean_.size() != ni) {
        throw std::invalid_argument("SsvRuntime: input grid size mismatch");
    }
    if (e_mean_.size() > ndy) {
        throw std::invalid_argument("SsvRuntime: too many external means");
    }
    num_outputs_ = ndy - e_mean_.size();
    x_ = Vector::zeros(ctrl_.k.numStates());
}

Vector
SsvRuntime::invoke(const Vector& deviations, const Vector& external,
                   SsvInvokeInfo* info)
{
    if (deviations.size() != num_outputs_ ||
        external.size() != e_mean_.size()) {
        throw std::invalid_argument("SsvRuntime::invoke: size mismatch");
    }
    YUKTA_CHECK_FINITE(deviations, "SsvRuntime::invoke: non-finite "
                       "deviation input");
    YUKTA_CHECK_FINITE(external, "SsvRuntime::invoke: non-finite "
                       "external input");
    // dy = [deviations (clamped); external - e_mean].
    Vector dy(num_outputs_ + e_mean_.size());
    for (std::size_t i = 0; i < num_outputs_; ++i) {
        double clamp = i < ctrl_.design_bounds.size()
                           ? kDeviationClamp * ctrl_.design_bounds[i]
                           : 0.0;
        dy[i] = clamp > 0.0
                    ? std::clamp(deviations[i], -clamp, clamp)
                    : deviations[i];
    }
    for (std::size_t i = 0; i < e_mean_.size(); ++i) {
        dy[num_outputs_ + i] = external[i] - e_mean_[i];
    }
    if (bumpless_armed_) {
        bumpless_armed_ = false;
        // Solve C x + D dy = u_prev - u_mean for the smallest x: the
        // output map C is wide (more states than tracked commands), so
        // the system is underdetermined and a tiny ridge picks the
        // minimum-norm solution. The incoming controller then repeats
        // the outgoing controller's command at this tick and deviates
        // only as its own dynamics take over.
        const linalg::Matrix& c = ctrl_.k.c;
        Vector target = ctrl_.k.d * dy;
        for (std::size_t i = 0; i < target.size(); ++i) {
            target[i] = bumpless_u_[i] - u_mean_[i] - target[i];
        }
        constexpr double kRidge = 1e-8;
        linalg::Matrix m(c.rows() + c.cols(), c.cols());
        m.setBlock(0, 0, c);
        Vector rhs = Vector::zeros(c.rows() + c.cols());
        for (std::size_t i = 0; i < c.rows(); ++i) {
            rhs[i] = target[i];
        }
        for (std::size_t i = 0; i < c.cols(); ++i) {
            m(c.rows() + i, i) = kRidge;
        }
        x_ = linalg::lstsq(m, rhs);
        YUKTA_CHECK_FINITE(x_, "SsvRuntime: bumpless-transfer state "
                           "solve produced non-finite x");
    }
    // Linear state machine (Eqs. 3-4).
    const Vector u = control::stepOnce(ctrl_.k, x_, dy);
    YUKTA_CHECK_FINITE(x_, "SsvRuntime: controller state poisoned after "
                       "x(T+1) = A x(T) + B dy(T)");
    YUKTA_CHECK_FINITE(u, "SsvRuntime: non-finite controller output");

    if (info != nullptr) {
        info->dy = dy;
        info->x = x_;
        info->u_raw = Vector(grids_.size());
        info->saturated.assign(grids_.size(), 0);
        info->quantized.assign(grids_.size(), 0);
    }

    // Saturation + quantization of the physical inputs.
    Vector out(grids_.size());
    for (std::size_t i = 0; i < grids_.size(); ++i) {
        const double raw = u[i] + u_mean_[i];
        out[i] = grids_[i].quantize(raw);
        if (info != nullptr) {
            info->u_raw[i] = raw;
            const bool sat = raw < grids_[i].min || raw > grids_[i].max;
            info->saturated[i] = sat ? 1 : 0;
            info->quantized[i] = !sat && out[i] != raw ? 1 : 0;
        }
        YUKTA_ENSURE(out[i] >= grids_[i].min && out[i] <= grids_[i].max,
                     "SsvRuntime: input ", i, " = ", out[i],
                     " escapes saturation range [", grids_[i].min, ", ",
                     grids_[i].max, "]");
    }

    // Guardband-exhaustion monitor: sustained deviations beyond the
    // guaranteed bounds mean the design's Delta was too small.
    bool over = false;
    for (std::size_t i = 0; i < num_outputs_ &&
                            i < ctrl_.guaranteed_bounds.size();
         ++i) {
        if (std::abs(deviations[i]) > ctrl_.guaranteed_bounds[i]) {
            over = true;
            break;
        }
    }
    over_bound_count_ = over ? over_bound_count_ + 1 : 0;
    if (over_bound_count_ >= kExhaustionWindow) {
        exhausted_ = true;
    }
    return out;
}

void
SsvRuntime::reset()
{
    // Deliberately leaves an armed bumpless transfer in place: the
    // supervised swap path resets the primaries on re-entering
    // kNominal, right before the hand-over tick the arm exists for.
    x_ = Vector::zeros(ctrl_.k.numStates());
    over_bound_count_ = 0;
    exhausted_ = false;
}

void
SsvRuntime::armBumpless(Vector u_prev)
{
    if (u_prev.size() != grids_.size()) {
        throw std::invalid_argument(
            "SsvRuntime::armBumpless: size mismatch");
    }
    bumpless_u_ = std::move(u_prev);
    bumpless_armed_ = true;
}

}  // namespace yukta::controllers
