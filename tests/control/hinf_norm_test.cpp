#include "support/hinf_norm.h"

#include <cmath>

#include <gtest/gtest.h>

#include "control/discretize.h"
#include "linalg/eig.h"
#include "linalg/svd.h"
#include "linalg/test_util.h"

namespace yukta::control {
namespace {

using linalg::Matrix;

TEST(HinfNormExact, FirstOrderDcPeak)
{
    // G(s) = 3/(s+1): norm 3 at DC.
    StateSpace g(Matrix{{-1.0}}, Matrix{{3.0}}, Matrix{{1.0}},
                 Matrix{{0.0}});
    EXPECT_NEAR(hinfNormExact(g), 3.0, 1e-5);
}

TEST(HinfNormExact, ResonantPeakAnalytic)
{
    // Second-order resonance: peak = 1 / (2 zeta sqrt(1 - zeta^2)).
    double zeta = 0.02;
    Matrix a{{0.0, 1.0}, {-1.0, -2.0 * zeta}};
    Matrix b{{0.0}, {1.0}};
    Matrix c{{1.0, 0.0}};
    StateSpace g(a, b, c, Matrix(1, 1));
    double expect = 1.0 / (2.0 * zeta * std::sqrt(1.0 - zeta * zeta));
    // The sweep in robust/hinf.h can clip such a narrow peak; the
    // Hamiltonian bisection must nail it.
    EXPECT_NEAR(hinfNormExact(g, 1e-8), expect, 1e-3 * expect);
}

TEST(HinfNormExact, FeedthroughOnly)
{
    StateSpace g(Matrix{{-1.0}}, Matrix{{0.0}}, Matrix{{1.0}},
                 Matrix{{2.5}});
    EXPECT_NEAR(hinfNormExact(g), 2.5, 1e-4);
}

TEST(HinfNormExact, DiscreteViaBilinear)
{
    // Discrete lag with DC gain 4.
    StateSpace g(Matrix{{0.5}}, Matrix{{2.0}}, Matrix{{1.0}}, Matrix{{0.0}},
                 0.5);
    EXPECT_NEAR(hinfNormExact(g), 4.0, 1e-4);
}

TEST(HinfNormExact, RejectsUnstable)
{
    StateSpace g(Matrix{{0.5}}, Matrix{{1.0}}, Matrix{{1.0}}, Matrix{{0.0}});
    EXPECT_THROW(hinfNormExact(g), std::invalid_argument);
}

TEST(HinfNormExact, HamiltonianTestBrackets)
{
    StateSpace g(Matrix{{-1.0}}, Matrix{{3.0}}, Matrix{{1.0}},
                 Matrix{{0.0}});
    // Below the norm: crossing exists; above: none.
    EXPECT_TRUE(gammaHamiltonianHasImaginaryEigenvalue(g, 2.0));
    EXPECT_FALSE(gammaHamiltonianHasImaginaryEigenvalue(g, 3.5));
}

/** Property: exact norm >= sigma_max at any sampled frequency. */
class HinfNormProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(HinfNormProperty, DominatesSampledResponse)
{
    unsigned seed = GetParam();
    // Random stable 4-state MIMO system: shift A left of the axis.
    Matrix raw = test::randomMatrix(4, 4, seed);
    double shift = linalg::spectralAbscissa(raw) + 0.3;
    Matrix a = raw - shift * Matrix::identity(4);
    StateSpace g(a, test::randomMatrix(4, 2, seed + 1),
                 test::randomMatrix(2, 4, seed + 2), Matrix(2, 2), 0.0);
    ASSERT_TRUE(g.isStable());
    double norm = hinfNormExact(g, 1e-7);
    for (double w : {0.0, 0.05, 0.3, 1.0, 3.0, 10.0, 50.0}) {
        // yukta-lint: allow(freq-loop) pointwise oracle comparison
        double s = linalg::sigmaMax(g.freqResponse(w));
        EXPECT_LE(s, norm * (1.0 + 1e-5)) << "w=" << w;
    }
    // And the norm is actually attained somewhere near the sweep max.
    double sweep = 0.0;
    for (int i = 0; i <= 400; ++i) {
        double w = std::pow(10.0, -3.0 + 6.0 * i / 400.0);
        // yukta-lint: allow(freq-loop) pointwise oracle comparison
        sweep = std::max(sweep, linalg::sigmaMax(g.freqResponse(w)));
    }
    sweep = std::max(sweep, linalg::sigmaMax(g.dcGain()));
    EXPECT_NEAR(norm, sweep, 0.02 * norm);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HinfNormProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

}  // namespace
}  // namespace yukta::control
