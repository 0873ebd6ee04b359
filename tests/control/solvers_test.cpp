// Tests for discretize (Tustin and ZOH), lyapunov, riccati, lqg, and
// balance.
#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "control/balance.h"
#include "control/discretize.h"
#include "control/lqg.h"
#include "control/lyapunov.h"
#include "control/riccati.h"
#include "linalg/eig.h"
#include "linalg/test_util.h"

namespace yukta::control {
namespace {

using linalg::Matrix;

TEST(Discretize, RoundTripRecoversSystem)
{
    Matrix a{{-1.0, 0.5}, {0.0, -2.0}};
    Matrix b{{1.0}, {0.5}};
    Matrix c{{1.0, 0.0}};
    Matrix d{{0.1}};
    StateSpace g(a, b, c, d);
    StateSpace gd = c2d(g, 0.5);
    StateSpace gc = d2c(gd);
    EXPECT_TRUE(gc.a.isApprox(a, 1e-9));
    EXPECT_TRUE(gc.b.isApprox(b, 1e-9));
    EXPECT_TRUE(gc.c.isApprox(c, 1e-9));
    EXPECT_TRUE(gc.d.isApprox(d, 1e-9));
}

TEST(Discretize, PreservesDcGain)
{
    StateSpace g(Matrix{{-2.0}}, Matrix{{4.0}}, Matrix{{1.0}},
                 Matrix{{0.0}});
    StateSpace gd = c2d(g, 0.1);
    EXPECT_NEAR(gd.dcGain()(0, 0), g.dcGain()(0, 0), 1e-10);
}

TEST(Discretize, BilinearMapsFrequencyWithWarping)
{
    // At w, the Tustin map evaluates G at w' = (2/Ts) tan(w Ts / 2).
    StateSpace g(Matrix{{-1.0}}, Matrix{{1.0}}, Matrix{{1.0}},
                 Matrix{{0.0}});
    double ts = 0.2;
    StateSpace gd = c2d(g, ts);
    double w = 3.0;
    double warped = 2.0 / ts * std::tan(w * ts / 2.0);
    auto rd = gd.freqResponse(w);
    auto rc = g.freqResponse(warped);
    EXPECT_NEAR(std::abs(rd(0, 0) - rc(0, 0)), 0.0, 1e-10);
}

TEST(Discretize, StabilityPreserved)
{
    StateSpace g(Matrix{{-0.5, 1.0}, {-1.0, -0.5}}, Matrix{{1.0}, {0.0}},
                 Matrix{{1.0, 0.0}}, Matrix{{0.0}});
    EXPECT_TRUE(g.isStable());
    EXPECT_TRUE(c2d(g, 1.0).isStable());
}

TEST(Discretize, ArgumentValidation)
{
    StateSpace cont(Matrix{{-1.0}}, Matrix{{1.0}}, Matrix{{1.0}},
                    Matrix{{0.0}});
    EXPECT_THROW(c2d(cont, 0.0), std::invalid_argument);
    EXPECT_THROW(d2c(cont), std::invalid_argument);
    StateSpace disc = c2d(cont, 1.0);
    EXPECT_THROW(c2d(disc, 1.0), std::invalid_argument);
}

TEST(Zoh, MatchesAnalyticFirstOrder)
{
    // dx = -a x + u: Ad = e^{-a ts}, Bd = (1 - e^{-a ts}) / a.
    double a = 2.0;
    double ts = 0.3;
    StateSpace sys(Matrix{{-a}}, Matrix{{1.0}}, Matrix{{1.0}},
                   Matrix{{0.0}});
    StateSpace d = c2dZoh(sys, ts);
    EXPECT_NEAR(d.a(0, 0), std::exp(-a * ts), 1e-12);
    EXPECT_NEAR(d.b(0, 0), (1.0 - std::exp(-a * ts)) / a, 1e-12);
    EXPECT_DOUBLE_EQ(d.ts, ts);
}

TEST(Zoh, ExactForPiecewiseConstantInput)
{
    // Simulating the ZOH discretization step-by-step must match the
    // continuous solution at the sample points.
    Matrix a{{-0.5, 1.0}, {-1.0, -0.5}};
    Matrix b{{0.0}, {1.0}};
    Matrix c{{1.0, 0.0}};
    StateSpace sys(a, b, c, Matrix(1, 1));
    double ts = 0.25;
    StateSpace d = c2dZoh(sys, ts);

    // Continuous propagation over one period with constant u = 1:
    // x+ = e^{A ts} x + (int e^{A s} ds) B.
    linalg::Vector x{0.3, -0.2};
    linalg::Vector xd = x;
    linalg::Vector u{1.0};
    // Reference by fine Euler integration.
    linalg::Vector xc = x;
    int fine = 20000;
    for (int i = 0; i < fine; ++i) {
        linalg::Vector dx = a * xc + b * u;
        xc += (ts / fine) * dx;
    }
    stepOnce(d, xd, u);
    EXPECT_TRUE(xd.isApprox(xc, 1e-4));
}

TEST(Zoh, DcGainPreserved)
{
    StateSpace sys(Matrix{{-1.0, 0.3}, {0.0, -2.0}},
                   Matrix{{1.0}, {0.5}}, Matrix{{1.0, 1.0}}, Matrix(1, 1));
    StateSpace d = c2dZoh(sys, 0.5);
    EXPECT_NEAR(d.dcGain()(0, 0), sys.dcGain()(0, 0), 1e-10);
}

TEST(Zoh, Validation)
{
    StateSpace cont(Matrix{{-1.0}}, Matrix{{1.0}}, Matrix{{1.0}},
                    Matrix{{0.0}});
    EXPECT_THROW(c2dZoh(cont, 0.0), std::invalid_argument);
    StateSpace disc = c2dZoh(cont, 0.5);
    EXPECT_THROW(c2dZoh(disc, 0.5), std::invalid_argument);
}

TEST(Lyapunov, DlyapSolvesEquation)
{
    Matrix a{{0.5, 0.2}, {0.0, 0.3}};
    Matrix q = test::randomSpd(2, 60);
    Matrix x = dlyap(a, q);
    Matrix resid = a * x * a.transpose() - x + q;
    EXPECT_LT(resid.maxAbs(), 1e-10);
}

TEST(Lyapunov, DlyapRejectsUnstable)
{
    Matrix a{{1.5}};
    EXPECT_THROW(dlyap(a, Matrix{{1.0}}), std::runtime_error);
}

TEST(Lyapunov, ClyapSolvesEquation)
{
    Matrix a{{-1.0, 0.4}, {0.0, -0.5}};
    Matrix q = test::randomSpd(2, 61);
    Matrix x = clyap(a, q);
    Matrix resid = a * x + x * a.transpose() + q;
    EXPECT_LT(resid.maxAbs(), 1e-10);
}

TEST(Riccati, CareScalarKnownSolution)
{
    // a=1, g=1, q=2: x^2 - 2x - 2 = 0 -> x = 1 + sqrt(3).
    auto res = care(Matrix{{1.0}}, Matrix{{1.0}}, Matrix{{2.0}});
    ASSERT_TRUE(res.has_value());
    EXPECT_NEAR(res->x(0, 0), 1.0 + std::sqrt(3.0), 1e-9);
    EXPECT_TRUE(res->stabilizing);
}

TEST(Riccati, CareResidualSmallOnRandomStabilizable)
{
    for (unsigned seed : {70u, 71u, 72u}) {
        int n = 4;
        Matrix a = test::randomMatrix(n, n, seed);
        Matrix b = test::randomMatrix(n, 2, seed + 10);
        Matrix g = b * b.transpose();
        Matrix q = test::randomSpd(n, seed + 20);
        auto res = care(a, g, q);
        ASSERT_TRUE(res.has_value()) << "seed " << seed;
        EXPECT_LT(res->residual, 1e-6 * (1.0 + res->x.maxAbs()));
        EXPECT_TRUE(res->stabilizing);
        EXPECT_TRUE(linalg::isPositiveSemidefinite(res->x, 1e-6));
    }
}

TEST(Riccati, DareScalarKnownSolution)
{
    // a=1, b=1, q=1, r=1: x = 1 + x - x^2/(1+x) -> x = (1+sqrt(5))/2.
    auto res = dare(Matrix{{1.0}}, Matrix{{1.0}}, Matrix{{1.0}},
                    Matrix{{1.0}});
    ASSERT_TRUE(res.has_value());
    EXPECT_NEAR(res->x(0, 0), (1.0 + std::sqrt(5.0)) / 2.0, 1e-9);
}

TEST(Riccati, DareResidualSmallOnRandom)
{
    for (unsigned seed : {80u, 81u, 82u}) {
        int n = 5;
        Matrix a = 0.9 * test::randomMatrix(n, n, seed);
        Matrix b = test::randomMatrix(n, 2, seed + 10);
        Matrix q = test::randomSpd(n, seed + 20);
        Matrix r = Matrix::identity(2);
        auto res = dare(a, b, q, r);
        ASSERT_TRUE(res.has_value()) << "seed " << seed;
        EXPECT_LT(res->residual, 1e-7 * (1.0 + res->x.maxAbs()));
        EXPECT_TRUE(res->stabilizing);
    }
}

TEST(Lqr, StabilizesUnstablePlant)
{
    Matrix a{{1.2, 0.1}, {0.0, 0.8}};
    Matrix b{{1.0}, {0.5}};
    auto k = dlqr(a, b, Matrix::identity(2), Matrix::identity(1));
    ASSERT_TRUE(k.has_value());
    Matrix acl = a - b * (*k);
    EXPECT_LT(linalg::spectralRadius(acl), 1.0);
}

TEST(Kalman, GainStabilizesObserver)
{
    Matrix a{{0.95, 0.2}, {0.0, 0.85}};
    Matrix c{{1.0, 0.0}};
    auto kg = kalman(a, c, Matrix::identity(2), Matrix::identity(1));
    ASSERT_TRUE(kg.has_value());
    Matrix aobs = a - kg->l_pred * c;
    EXPECT_LT(linalg::spectralRadius(aobs), 1.0);
    EXPECT_TRUE(linalg::isPositiveSemidefinite(kg->p, 1e-7));
}

TEST(Lqg, ClosedLoopStable)
{
    // Unstable SISO plant; LQG must stabilize it.
    Matrix a{{1.05, 0.3}, {0.0, 0.7}};
    Matrix b{{0.5}, {1.0}};
    Matrix c{{1.0, 0.5}};
    Matrix d{{0.0}};
    StateSpace plant(a, b, c, d, 1.0);
    auto ctrl = lqgSynthesize(plant, LqgWeights{});
    ASSERT_TRUE(ctrl.has_value());

    // Closed loop: x+ = Ax + B u, u = K(y), y = Cx (negative feedback
    // is baked into the controller's -K xhat).
    std::size_t n = 2;
    std::size_t nk = ctrl->numStates();
    Matrix acl(n + nk, n + nk);
    acl.setBlock(0, 0, a + b * ctrl->d * c);
    acl.setBlock(0, n, b * ctrl->c);
    acl.setBlock(n, 0, ctrl->b * c);
    acl.setBlock(n, n, ctrl->a);
    EXPECT_LT(linalg::spectralRadius(acl), 1.0);
}

TEST(Balance, TruncationKeepsDcGainApproximately)
{
    // Build a stable 6-state system with rapidly decaying modes.
    Matrix a = Matrix::diag({0.9, 0.5, 0.3, 0.1, 0.05, 0.01});
    Matrix b = test::randomMatrix(6, 1, 90);
    Matrix c = test::randomMatrix(1, 6, 91);
    StateSpace g(a, b, c, Matrix(1, 1), 1.0);
    auto red = balancedTruncate(g, 3);
    EXPECT_LE(red.sys.numStates(), 3u);
    EXPECT_TRUE(red.sys.isStable());
    EXPECT_NEAR(red.sys.dcGain()(0, 0), g.dcGain()(0, 0),
                0.05 * std::abs(g.dcGain()(0, 0)) + 0.05);
    // Hankel singular values descending.
    for (std::size_t i = 1; i < red.hsv.size(); ++i) {
        EXPECT_LE(red.hsv[i], red.hsv[i - 1] + 1e-12);
    }
}

TEST(Balance, NoopWhenOrderSufficient)
{
    StateSpace g(Matrix{{0.5}}, Matrix{{1.0}}, Matrix{{1.0}}, Matrix{{0.0}},
                 1.0);
    auto red = balancedTruncate(g, 5);
    EXPECT_EQ(red.sys.numStates(), 1u);
}

TEST(Balance, RejectsContinuous)
{
    StateSpace g(Matrix{{-1.0}}, Matrix{{1.0}}, Matrix{{1.0}},
                 Matrix{{0.0}});
    EXPECT_THROW(balancedTruncate(g, 1), std::invalid_argument);
}

/** Property: DARE cost matrix grows with Q scaling. */
class DareMonotoneProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(DareMonotoneProperty, CostIncreasesWithQ)
{
    double scale = GetParam();
    Matrix a{{0.9, 0.2}, {0.0, 0.7}};
    Matrix b{{1.0}, {0.3}};
    auto x1 = dare(a, b, Matrix::identity(2), Matrix::identity(1));
    auto x2 = dare(a, b, scale * Matrix::identity(2), Matrix::identity(1));
    ASSERT_TRUE(x1 && x2);
    // X2 - X1 should be PSD when scale >= 1.
    EXPECT_TRUE(linalg::isPositiveSemidefinite(x2->x - x1->x, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Scales, DareMonotoneProperty,
                         ::testing::Values(1.0, 2.0, 5.0, 10.0));

}  // namespace
}  // namespace yukta::control
