#ifndef YUKTA_CONTROLLERS_FIXED_POINT_H_
#define YUKTA_CONTROLLERS_FIXED_POINT_H_

/**
 * @file
 * Fixed-point (Q16.16) implementation of the SSV runtime state
 * machine, used for the hardware-cost study of Sec. VI-D: the paper
 * reports ~700 32-bit fixed-point operations and ~2.6 KB of storage
 * per invocation for N=20, I=4, O=4, E=3.
 */

#include <cstdint>
#include <vector>

#include "control/state_space.h"
#include "linalg/vector.h"

namespace yukta::controllers {

/** Q16.16 fixed-point SSV state machine. */
class FixedPointSsv
{
  public:
    /** Quantizes the controller matrices into Q16.16. */
    explicit FixedPointSsv(const control::StateSpace& k);

    static constexpr int kFracBits = 16;

    /** Converts a double to Q16.16 (saturating). */
    static std::int32_t toFixed(double v);

    /** Converts Q16.16 back to double. */
    static double fromFixed(std::int32_t v);

    /** Shape accessors: states, dy inputs, and u outputs. */
    std::size_t numStates() const { return n_; }
    std::size_t numInputsDy() const { return m_; }
    std::size_t numOutputsU() const { return p_; }

    /**
     * One invocation of Eqs. 3-4 in fixed point.
     * @param dy deviations + external signals, Q16.16, size m.
     * @return inputs u, Q16.16, size p.
     */
    std::vector<std::int32_t> step(const std::vector<std::int32_t>& dy);

    /** Convenience double-in / double-out wrapper. */
    linalg::Vector stepDouble(const linalg::Vector& dy);

    /** Resets the state vector. */
    void reset();

    /**
     * Multiply-accumulate operations per invocation:
     * (N + I) * (N + O + E) MACs.
     */
    std::size_t macsPerInvocation() const;

    /** Total ops counting multiplies and adds separately. */
    std::size_t opsPerInvocation() const { return 2 * macsPerInvocation(); }

    /** Bytes of matrix + state storage (32-bit words). */
    std::size_t storageBytes() const;

  private:
    std::size_t n_;  ///< States.
    std::size_t m_;  ///< dy width (O + E).
    std::size_t p_;  ///< u width (I).
    std::vector<std::int32_t> a_, b_, c_, d_;  ///< Row-major Q16.16.
    std::vector<std::int32_t> x_;
};

}  // namespace yukta::controllers

#endif  // YUKTA_CONTROLLERS_FIXED_POINT_H_
