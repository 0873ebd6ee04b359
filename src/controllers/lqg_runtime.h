#ifndef YUKTA_CONTROLLERS_LQG_RUNTIME_H_
#define YUKTA_CONTROLLERS_LQG_RUNTIME_H_

/**
 * @file
 * Runtime wrapper for LQG controllers (the Sec. VI-B baseline from
 * Pothukuchi et al., ISCA 2016). Deliberately faithful to that
 * design's limitations:
 *
 *  - no external-signal channel (so no cross-layer coordination),
 *  - no knowledge of input saturation or quantization: the raw
 *    command is emitted, the actuators clamp it, and the controller's
 *    internal observer never learns (windup / "wasted actuation"),
 *  - no native uncertainty guardband.
 */

#include <cstddef>
#include <vector>

#include "control/state_space.h"
#include "controllers/ssv_runtime.h"
#include "linalg/vector.h"

namespace yukta::controllers {

/**
 * Optional per-invocation introspection record (tracing only): the
 * updated observer state, the raw command before actuator clamping,
 * and per-input saturation flags. See obs/trace.h.
 */
struct LqgInvokeInfo
{
    linalg::Vector x;      ///< State after the observer update.
    linalg::Vector u_raw;  ///< Physical command before clamping.
    std::vector<int> saturated;  ///< 1 = command left the grid range.
};

/** Runtime LQG tracking controller. */
class LqgRuntime
{
  public:
    /**
     * @param k LQG controller (maps centered output deviations
     *   (y - r) to centered inputs), discrete.
     * @param grids physical actuator ranges (used only for clamping
     *   and for counting wasted actuation -- the controller itself is
     *   oblivious to them).
     * @param u_mean operating-point offset.
     */
    LqgRuntime(control::StateSpace k, std::vector<InputGrid> grids,
               linalg::Vector u_mean);

    /** Shape accessors: tracked outputs and physical inputs. */
    std::size_t numOutputsTracked() const { return k_.numInputs(); }
    std::size_t numInputs() const { return grids_.size(); }

    /**
     * One invocation.
     * @param deviations targets - outputs, size = controller inputs.
     * @param info when non-null, receives the introspection record
     *   (tracing only; no behavioral effect).
     * @return physically applied inputs (clamped by the actuators).
     */
    linalg::Vector invoke(const linalg::Vector& deviations,
                          LqgInvokeInfo* info = nullptr);

    /** Resets the controller state and the move counters. */
    void reset();

    /** Invocations whose raw command exceeded an actuator range. */
    int wastedMoves() const { return wasted_moves_; }

    /** Total invocations. */
    int totalMoves() const { return total_moves_; }

    /** Appends the mutable runtime state to @p w. */
    void save(obs::StateWriter& w) const
    {
        w.f64vec("lqg.x", x_.raw());
        w.i64("lqg.wasted_moves", wasted_moves_);
        w.i64("lqg.total_moves", total_moves_);
    }

    /** Restores state written by save. */
    void load(obs::StateReader& r)
    {
        x_ = linalg::Vector(r.f64vec("lqg.x"));
        wasted_moves_ = static_cast<int>(r.i64("lqg.wasted_moves"));
        total_moves_ = static_cast<int>(r.i64("lqg.total_moves"));
    }

  private:
    control::StateSpace k_;
    std::vector<InputGrid> grids_;
    linalg::Vector u_mean_;
    linalg::Vector x_;
    int wasted_moves_ = 0;
    int total_moves_ = 0;
};

}  // namespace yukta::controllers

#endif  // YUKTA_CONTROLLERS_LQG_RUNTIME_H_
