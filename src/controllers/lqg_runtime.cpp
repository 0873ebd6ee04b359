#include "controllers/lqg_runtime.h"

#include <cmath>
#include <stdexcept>

#include "core/contracts.h"

namespace yukta::controllers {

using linalg::Vector;

LqgRuntime::LqgRuntime(control::StateSpace k, std::vector<InputGrid> grids,
                       Vector u_mean)
    : k_(std::move(k)), grids_(std::move(grids)), u_mean_(std::move(u_mean))
{
    if (grids_.size() != k_.numOutputs() ||
        u_mean_.size() != k_.numOutputs()) {
        throw std::invalid_argument("LqgRuntime: grid size mismatch");
    }
    x_ = Vector::zeros(k_.numStates());
}

Vector
LqgRuntime::invoke(const Vector& deviations, LqgInvokeInfo* info)
{
    if (deviations.size() != k_.numInputs()) {
        throw std::invalid_argument("LqgRuntime::invoke: size mismatch");
    }
    YUKTA_CHECK_FINITE(deviations, "LqgRuntime::invoke: non-finite "
                       "deviation input");
    // The LQG regulator drives its measurement to zero; feeding the
    // negated deviation (y - r) makes it a tracker.
    Vector y_in(deviations.size());
    for (std::size_t i = 0; i < deviations.size(); ++i) {
        y_in[i] = -deviations[i];
    }
    const Vector u_raw = control::stepOnce(k_, x_, y_in);
    YUKTA_CHECK_FINITE(x_, "LqgRuntime: controller state poisoned after "
                       "x(T+1) = A x(T) + B dy(T)");

    ++total_moves_;
    if (info != nullptr) {
        info->x = x_;
        info->u_raw = Vector(grids_.size());
        info->saturated.assign(grids_.size(), 0);
    }
    bool wasted = false;
    Vector out(grids_.size());
    for (std::size_t i = 0; i < grids_.size(); ++i) {
        double cmd = u_raw[i] + u_mean_[i];
        double range = grids_[i].max - grids_[i].min;
        if (cmd > grids_[i].max + 0.05 * range ||
            cmd < grids_[i].min - 0.05 * range) {
            // Command beyond the physical limit: the actuator clamps,
            // the output does not change as the controller expected,
            // and the move is wasted (Sec. VI-B's bodytrack anecdote).
            wasted = true;
        }
        out[i] = grids_[i].quantize(cmd);
        if (info != nullptr) {
            info->u_raw[i] = cmd;
            info->saturated[i] =
                cmd < grids_[i].min || cmd > grids_[i].max ? 1 : 0;
        }
    }
    if (wasted) {
        ++wasted_moves_;
    }
    return out;
}

void
LqgRuntime::reset()
{
    x_ = Vector::zeros(k_.numStates());
    wasted_moves_ = 0;
    total_moves_ = 0;
}

}  // namespace yukta::controllers
