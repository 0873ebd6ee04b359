#include "linalg/svd.h"

#include <cmath>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "linalg/test_util.h"

namespace yukta::linalg {
namespace {

TEST(Svd, DiagonalMatrix)
{
    Matrix a = Matrix::diag({3.0, 1.0, 2.0});
    Svd d = svd(a);
    ASSERT_EQ(d.s.size(), 3u);
    EXPECT_NEAR(d.s[0], 3.0, 1e-10);
    EXPECT_NEAR(d.s[1], 2.0, 1e-10);
    EXPECT_NEAR(d.s[2], 1.0, 1e-10);
}

TEST(Svd, ReconstructsTall)
{
    Matrix a = test::randomMatrix(8, 4, 31);
    Svd d = svd(a);
    Matrix recon = d.u * Matrix::diag(d.s) * d.v.transpose();
    EXPECT_TRUE(recon.isApprox(a, 1e-9));
}

TEST(Svd, ReconstructsWide)
{
    Matrix a = test::randomMatrix(3, 7, 32);
    Svd d = svd(a);
    ASSERT_EQ(d.s.size(), 3u);
    Matrix recon = d.u * Matrix::diag(d.s) * d.v.transpose();
    EXPECT_TRUE(recon.isApprox(a, 1e-9));
}

TEST(Svd, OrthonormalFactors)
{
    Matrix a = test::randomMatrix(6, 4, 33);
    Svd d = svd(a);
    EXPECT_TRUE((d.u.transpose() * d.u).isApprox(Matrix::identity(4), 1e-9));
    EXPECT_TRUE((d.v.transpose() * d.v).isApprox(Matrix::identity(4), 1e-9));
}

TEST(Svd, ComplexReconstruction)
{
    CMatrix a = test::randomCMatrix(5, 3, 34);
    CSvd d = svd(a);
    CMatrix s(3, 3);
    for (std::size_t i = 0; i < 3; ++i) {
        s(i, i) = Complex(d.s[i], 0.0);
    }
    EXPECT_TRUE((d.u * s * d.v.adjoint()).isApprox(a, 1e-9));
    EXPECT_TRUE(
        (d.u.adjoint() * d.u).isApprox(CMatrix::identity(3), 1e-9));
}

TEST(Svd, SingularValuesDescending)
{
    Matrix a = test::randomMatrix(10, 6, 35);
    Svd d = svd(a);
    for (std::size_t i = 0; i + 1 < d.s.size(); ++i) {
        EXPECT_GE(d.s[i], d.s[i + 1]);
    }
}

TEST(Svd, SigmaMaxMatchesFroForRankOne)
{
    Matrix u = test::randomMatrix(5, 1, 36);
    Matrix v = test::randomMatrix(1, 4, 37);
    Matrix a = u * v;  // rank one: sigma_max = ||A||_F
    EXPECT_NEAR(sigmaMax(a), a.normFro(), 1e-9);
}

TEST(Svd, SigmaMinOfIdentity)
{
    EXPECT_NEAR(sigmaMin(Matrix::identity(4)), 1.0, 1e-12);
}

TEST(Svd, EmptyMatrix)
{
    EXPECT_DOUBLE_EQ(sigmaMax(Matrix()), 0.0);
    EXPECT_DOUBLE_EQ(sigmaMax(CMatrix()), 0.0);
}

TEST(Svd, UnitaryInvarianceOfSigmaMax)
{
    CMatrix a = test::randomCMatrix(4, 4, 38);
    // Multiplying by a diagonal unitary phase matrix preserves sigma.
    CMatrix u(4, 4);
    for (std::size_t i = 0; i < 4; ++i) {
        double th = 0.3 * (i + 1);
        u(i, i) = Complex(std::cos(th), std::sin(th));
    }
    EXPECT_NEAR(sigmaMax(u * a), sigmaMax(a), 1e-9);
}

TEST(Svd, SigmaMaxEqualsFullSvdBitwise)
{
    // sigmaMax runs svd()'s sweeps without V, U or the sort, so the
    // value must be svd(a).s.front() to the last bit. Shapes: tall,
    // wide, square, the 16x15 mu matrix of the HW layer and its
    // transpose, and one past 16 columns (where std::sort stops being
    // a pure insertion sort).
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {1, 1}, {5, 3}, {3, 5}, {6, 6}, {16, 15}, {15, 16}, {20, 18}};
    unsigned seed = 500;
    for (const auto& [r, c] : shapes) {
        for (int rep = 0; rep < 3; ++rep, ++seed) {
            SCOPED_TRACE(std::to_string(r) + "x" + std::to_string(c) +
                         " seed " + std::to_string(seed));
            const CMatrix a = test::randomCMatrix(r, c, seed);
            EXPECT_EQ(sigmaMax(a), svd(a).s.front());
            const Matrix m = test::randomMatrix(r, c, seed);
            EXPECT_EQ(sigmaMax(m), svd(m).s.front());
        }
    }

    // Zero matrices: every rotation is skipped, the value is 0.
    EXPECT_EQ(sigmaMax(CMatrix(4, 3)), 0.0);
    EXPECT_EQ(sigmaMax(CMatrix(4, 3)), svd(CMatrix(4, 3)).s.front());
    EXPECT_EQ(sigmaMax(Matrix(3, 5)), svd(Matrix(3, 5)).s.front());

    // Rank one: u v^H, with several equal-zero singular values.
    for (const auto& [r, c] : shapes) {
        const CMatrix u = test::randomCMatrix(r, 1, seed++);
        const CMatrix v = test::randomCMatrix(1, c, seed++);
        const CMatrix a = u * v;
        EXPECT_EQ(sigmaMax(a), svd(a).s.front())
            << r << "x" << c << " rank one";
    }
}

TEST(Pinv, LeftInverseOfFullColumnRank)
{
    Matrix a = test::randomMatrix(7, 3, 39);
    Matrix p = pinv(a);
    EXPECT_TRUE((p * a).isApprox(Matrix::identity(3), 1e-9));
}

TEST(Pinv, HandlesRankDeficiency)
{
    Matrix u = test::randomMatrix(4, 1, 40);
    Matrix v = test::randomMatrix(1, 4, 41);
    Matrix a = u * v;  // rank 1
    Matrix p = pinv(a);
    // Moore-Penrose conditions: A p A = A, p A p = p.
    EXPECT_TRUE((a * p * a).isApprox(a, 1e-8));
    EXPECT_TRUE((p * a * p).isApprox(p, 1e-8));
}

/** Property sweep: sigma_max(A) equals sqrt(lambda_max(A^T A)). */
class SvdSigmaProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(SvdSigmaProperty, MatchesGram)
{
    int n = GetParam();
    Matrix a = test::randomMatrix(n, n, 1300 + n);
    Svd d = svd(a);
    // Largest eigenvalue of the Gram matrix = sigma_max^2, verified
    // via the Rayleigh quotient with the corresponding right vector.
    Matrix v0 = d.v.col(0);
    Matrix gram_v = a.transpose() * (a * v0);
    Matrix expected = (d.s[0] * d.s[0]) * v0;
    EXPECT_TRUE(gram_v.isApprox(expected, 1e-7 * (1.0 + d.s[0] * d.s[0])));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SvdSigmaProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 12));

}  // namespace
}  // namespace yukta::linalg
