#ifndef YUKTA_TESTS_SUPPORT_HINF_NORM_H_
#define YUKTA_TESTS_SUPPORT_HINF_NORM_H_

/**
 * @file
 * Exact H-infinity norm computation via the Hamiltonian bisection of
 * Boyd-Balakrishnan-Kabamba: gamma exceeds the norm iff the
 * gamma-Hamiltonian has no eigenvalues on the imaginary axis. The
 * frequency-sweep estimate in robust/hinf.h can miss a narrow peak;
 * this test cannot. Test-only: the oracle the robust-layer norm is
 * checked against, not part of the design flow.
 */

#include "control/state_space.h"

namespace yukta::control {

/**
 * Computes ||G||_inf for a *stable* system to relative tolerance
 * @p rtol. Discrete systems are mapped through the norm-preserving
 * bilinear transform.
 *
 * @throws std::invalid_argument when @p sys is unstable.
 */
double hinfNormExact(const StateSpace& sys, double rtol = 1e-6);

/**
 * @return true when the gamma-Hamiltonian of the (continuous, stable)
 * system has an eigenvalue within @p axis_tol of the imaginary axis,
 * i.e. sigma_max(G(jw)) crosses gamma at some frequency.
 */
bool gammaHamiltonianHasImaginaryEigenvalue(const StateSpace& sys,
                                            double gamma,
                                            double axis_tol = 1e-7);

}  // namespace yukta::control

#endif  // YUKTA_TESTS_SUPPORT_HINF_NORM_H_
