// Property-based tests for the control-math layer: Lyapunov/Riccati
// solutions are checked by substituting them back into their defining
// equations and discretization by round-tripping through the bilinear
// map. Every case is seeded and replayable (tests/support/prng.h).
#include <cmath>
#include <cstddef>

#include <gtest/gtest.h>

#include "control/discretize.h"
#include "control/lyapunov.h"
#include "control/riccati.h"
#include "control/state_space.h"
#include "linalg/lu.h"
#include "support/prng.h"

namespace yukta::control {
namespace {

using linalg::Matrix;
using testsupport::SplitMix64;

constexpr int kCases = 200;

/** Max-abs relative residual helper: ||r|| / (1 + ||x||). */
double
relResidual(const Matrix& residual, const Matrix& x)
{
    return residual.maxAbs() / (1.0 + x.maxAbs());
}

TEST(ControlProperty, DlyapSolutionSatisfiesItsEquation)
{
    SplitMix64 rng(0xD1A95EEDull);
    for (int c = 0; c < kCases; ++c) {
        const std::size_t n =
            static_cast<std::size_t>(rng.uniformInt(1, 6));
        const Matrix a = testsupport::randomStableDiscrete(rng, n);
        const Matrix q = testsupport::randomSymmetric(rng, n, 2.0);
        const Matrix x = dlyap(a, q);
        const Matrix residual = a * x * a.transpose() - x + q;
        EXPECT_LT(relResidual(residual, x), 1e-9) << "case " << c;
        EXPECT_LT((x - x.transpose()).maxAbs(), 1e-9) << "case " << c;
    }
}

TEST(ControlProperty, ClyapSolutionSatisfiesItsEquation)
{
    SplitMix64 rng(0xC1A95EEDull);
    for (int c = 0; c < kCases; ++c) {
        const std::size_t n =
            static_cast<std::size_t>(rng.uniformInt(1, 6));
        const Matrix a = testsupport::randomStableContinuous(rng, n);
        const Matrix q = testsupport::randomSymmetric(rng, n, 2.0);
        const Matrix x = clyap(a, q);
        const Matrix residual = a * x + x * a.transpose() + q;
        EXPECT_LT(relResidual(residual, x), 1e-8) << "case " << c;
    }
}

TEST(ControlProperty, CareSolutionSatisfiesItsEquation)
{
    SplitMix64 rng(0xCA1E5EEDull);
    int solved = 0;
    for (int c = 0; c < kCases; ++c) {
        const std::size_t n =
            static_cast<std::size_t>(rng.uniformInt(1, 4));
        const std::size_t m =
            static_cast<std::size_t>(rng.uniformInt(1, 2));
        const Matrix a = testsupport::randomStableContinuous(rng, n);
        const Matrix b = testsupport::randomMatrix(rng, n, m);
        const Matrix g = b * b.transpose();
        const Matrix q = testsupport::randomSpd(rng, n, 0.05);

        auto result = care(a, g, q);
        ASSERT_TRUE(result.has_value()) << "case " << c;
        const Matrix& x = result->x;
        const Matrix residual =
            a.transpose() * x + x * a - x * g * x + q;
        EXPECT_LT(relResidual(residual, x), 1e-6) << "case " << c;
        EXPECT_LT((x - x.transpose()).maxAbs(), 1e-6 * (1.0 + x.maxAbs()))
            << "case " << c;
        EXPECT_TRUE(result->stabilizing) << "case " << c;
        ++solved;
    }
    EXPECT_EQ(solved, kCases);
}

TEST(ControlProperty, DareSolutionSatisfiesItsEquation)
{
    SplitMix64 rng(0xDA1E5EEDull);
    for (int c = 0; c < kCases; ++c) {
        const std::size_t n =
            static_cast<std::size_t>(rng.uniformInt(1, 4));
        const std::size_t m =
            static_cast<std::size_t>(rng.uniformInt(1, 2));
        const Matrix a = testsupport::randomStableDiscrete(rng, n);
        const Matrix b = testsupport::randomMatrix(rng, n, m);
        const Matrix q = testsupport::randomSpd(rng, n, 0.05);
        const Matrix r = testsupport::randomSpd(rng, m, 1.0);

        auto result = dare(a, b, q, r);
        ASSERT_TRUE(result.has_value()) << "case " << c;
        const Matrix& x = result->x;
        const Matrix btxa = b.transpose() * x * a;
        const Matrix gain = linalg::solve(
            r + b.transpose() * x * b, btxa);  // (R+B'XB)^{-1} B'XA
        const Matrix residual = a.transpose() * x * a - x -
                                btxa.transpose() * gain + q;
        EXPECT_LT(relResidual(residual, x), 1e-7) << "case " << c;
        EXPECT_LT((x - x.transpose()).maxAbs(), 1e-7 * (1.0 + x.maxAbs()))
            << "case " << c;
    }
}

TEST(ControlProperty, TustinDiscretizeThenInverseRoundTrips)
{
    SplitMix64 rng(0x7057151Eull);
    for (int c = 0; c < kCases; ++c) {
        const std::size_t n =
            static_cast<std::size_t>(rng.uniformInt(1, 5));
        const std::size_t m =
            static_cast<std::size_t>(rng.uniformInt(1, 3));
        const std::size_t p =
            static_cast<std::size_t>(rng.uniformInt(1, 3));
        StateSpace sys(testsupport::randomStableContinuous(rng, n),
                       testsupport::randomMatrix(rng, n, m),
                       testsupport::randomMatrix(rng, p, n),
                       testsupport::randomMatrix(rng, p, m));
        const double ts = rng.uniform(0.1, 1.0);

        const StateSpace disc = c2d(sys, ts);
        EXPECT_TRUE(disc.isDiscrete()) << "case " << c;
        EXPECT_EQ(disc.numStates(), n);
        EXPECT_EQ(disc.numInputs(), m);
        EXPECT_EQ(disc.numOutputs(), p);

        const StateSpace back = d2c(disc);
        EXPECT_TRUE(back.isContinuous()) << "case " << c;
        const double tol = 1e-8;
        EXPECT_LT((back.a - sys.a).maxAbs(), tol) << "case " << c;
        EXPECT_LT((back.b - sys.b).maxAbs(), tol) << "case " << c;
        EXPECT_LT((back.c - sys.c).maxAbs(), tol) << "case " << c;
        EXPECT_LT((back.d - sys.d).maxAbs(), tol) << "case " << c;
    }
}

}  // namespace
}  // namespace yukta::control
