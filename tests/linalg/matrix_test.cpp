#include "linalg/matrix.h"

#include <cstddef>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "linalg/cmatrix.h"
#include "linalg/test_util.h"

namespace yukta::linalg {
namespace {

TEST(Matrix, DefaultIsEmpty)
{
    Matrix m;
    EXPECT_EQ(m.rows(), 0u);
    EXPECT_EQ(m.cols(), 0u);
    EXPECT_TRUE(m.empty());
}

TEST(Matrix, ConstructWithFill)
{
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    for (std::size_t i = 0; i < 2; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            EXPECT_DOUBLE_EQ(m(i, j), 1.5);
        }
    }
}

TEST(Matrix, InitializerList)
{
    Matrix m{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows)
{
    EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, WrappingSizeThrowsLengthError)
{
    // 2^32 x 2^32 wraps rows * cols to 0 in a 64-bit size_t; the
    // constructor must refuse it instead of allocating a tiny buffer
    // behind a huge shape.
    const std::size_t big = std::size_t{1} << 32;
    EXPECT_THROW(Matrix(big, big), std::length_error);
    EXPECT_THROW(CMatrix(big, big), std::length_error);
    EXPECT_THROW(Matrix(big + 1, big), std::length_error);
    // Degenerate shapes with a zero side stay legal.
    EXPECT_EQ(Matrix(big, 0).rows(), big);
    EXPECT_TRUE(CMatrix(0, big).empty());
}

TEST(Matrix, Identity)
{
    Matrix i = Matrix::identity(3);
    EXPECT_DOUBLE_EQ(i(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
    EXPECT_DOUBLE_EQ(i.trace(), 3.0);
}

TEST(Matrix, DiagBuildsDiagonal)
{
    Matrix d = Matrix::diag({1.0, 2.0, 3.0});
    EXPECT_DOUBLE_EQ(d(1, 1), 2.0);
    EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
    EXPECT_EQ(d.diagonal(), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Matrix, AddSubtract)
{
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Matrix b{{4.0, 3.0}, {2.0, 1.0}};
    Matrix s = a + b;
    EXPECT_TRUE(s.isApprox(Matrix{{5.0, 5.0}, {5.0, 5.0}}));
    Matrix d = a - b;
    EXPECT_TRUE(d.isApprox(Matrix{{-3.0, -1.0}, {1.0, 3.0}}));
}

TEST(Matrix, ShapeMismatchThrows)
{
    Matrix a(2, 2);
    Matrix b(2, 3);
    EXPECT_THROW(a += b, std::invalid_argument);
    EXPECT_THROW(a - b, std::invalid_argument);
    EXPECT_THROW(b * b, std::invalid_argument);
}

TEST(Matrix, Multiply)
{
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Matrix b{{5.0, 6.0}, {7.0, 8.0}};
    Matrix p = a * b;
    EXPECT_TRUE(p.isApprox(Matrix{{19.0, 22.0}, {43.0, 50.0}}));
}

TEST(Matrix, MultiplyIdentityIsNoop)
{
    Matrix a = test::randomMatrix(4, 4, 7);
    EXPECT_TRUE((a * Matrix::identity(4)).isApprox(a));
    EXPECT_TRUE((Matrix::identity(4) * a).isApprox(a));
}

TEST(Matrix, ScalarOps)
{
    Matrix a{{2.0, 4.0}};
    EXPECT_TRUE((2.0 * a).isApprox(Matrix{{4.0, 8.0}}));
    EXPECT_TRUE((a / 2.0).isApprox(Matrix{{1.0, 2.0}}));
    EXPECT_TRUE((-a).isApprox(Matrix{{-2.0, -4.0}}));
}

TEST(Matrix, Transpose)
{
    Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
    Matrix t = a.transpose();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
    EXPECT_TRUE(t.transpose().isApprox(a));
}

TEST(Matrix, BlockAndSetBlock)
{
    Matrix a = Matrix::zeros(4, 4);
    Matrix b{{1.0, 2.0}, {3.0, 4.0}};
    a.setBlock(1, 2, b);
    EXPECT_DOUBLE_EQ(a(1, 2), 1.0);
    EXPECT_DOUBLE_EQ(a(2, 3), 4.0);
    EXPECT_TRUE(a.block(1, 2, 2, 2).isApprox(b));
    EXPECT_THROW(a.block(3, 3, 2, 2), std::out_of_range);
    EXPECT_THROW(a.setBlock(3, 3, b), std::out_of_range);
}

TEST(Matrix, RowColExtraction)
{
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_TRUE(a.row(1).isApprox(Matrix{{3.0, 4.0}}));
    EXPECT_TRUE(a.col(0).isApprox(Matrix{{1.0}, {3.0}}));
}

TEST(Matrix, Norms)
{
    Matrix a{{3.0, 4.0}};
    EXPECT_DOUBLE_EQ(a.normFro(), 5.0);
    EXPECT_DOUBLE_EQ(a.normInf(), 7.0);
    EXPECT_DOUBLE_EQ(a.maxAbs(), 4.0);
}

TEST(Matrix, HstackVstack)
{
    Matrix a{{1.0}, {2.0}};
    Matrix b{{3.0}, {4.0}};
    Matrix h = hstack(a, b);
    EXPECT_EQ(h.cols(), 2u);
    EXPECT_DOUBLE_EQ(h(1, 1), 4.0);
    Matrix v = vstack(a.transpose(), b.transpose());
    EXPECT_EQ(v.rows(), 2u);
    EXPECT_DOUBLE_EQ(v(1, 0), 3.0);
    // Stacking with an empty matrix returns the other operand.
    EXPECT_TRUE(hstack(Matrix(), a).isApprox(a));
    EXPECT_TRUE(vstack(a, Matrix()).isApprox(a));
}

TEST(Matrix, Blkdiag)
{
    Matrix a{{1.0}};
    Matrix b{{2.0, 0.0}, {0.0, 3.0}};
    Matrix d = blkdiag(a, b);
    EXPECT_EQ(d.rows(), 3u);
    EXPECT_DOUBLE_EQ(d(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(d(2, 2), 3.0);
    EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(Matrix, KronSizesAndValues)
{
    Matrix a{{1.0, 2.0}};
    Matrix b{{0.0, 3.0}, {4.0, 0.0}};
    Matrix k = kron(a, b);
    EXPECT_EQ(k.rows(), 2u);
    EXPECT_EQ(k.cols(), 4u);
    EXPECT_DOUBLE_EQ(k(0, 1), 3.0);
    EXPECT_DOUBLE_EQ(k(1, 2), 8.0);
}

TEST(Matrix, VecUnvecRoundtrip)
{
    Matrix a = test::randomMatrix(3, 5, 11);
    EXPECT_TRUE(unvec(vec(a), 3, 5).isApprox(a));
}

TEST(Matrix, StreamOutput)
{
    std::ostringstream os;
    os << Matrix{{1.0, 2.0}};
    EXPECT_NE(os.str().find('1'), std::string::npos);
}

/** Property sweep: (A B)^T == B^T A^T over random shapes. */
class MatrixTransposeProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(MatrixTransposeProperty, ProductTranspose)
{
    auto [n, k, m] = GetParam();
    Matrix a = test::randomMatrix(n, k, 100 + n);
    Matrix b = test::randomMatrix(k, m, 200 + m);
    EXPECT_TRUE(
        (a * b).transpose().isApprox(b.transpose() * a.transpose(), 1e-12));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatrixTransposeProperty,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(5, 2, 5), std::make_tuple(7, 7, 7),
                      std::make_tuple(1, 9, 3)));

/** Property sweep: kron is multiplicative, (A (x) B)(C (x) D) = AC (x) BD. */
class KronProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(KronProperty, Multiplicative)
{
    int n = GetParam();
    Matrix a = test::randomMatrix(n, n, 300 + n);
    Matrix b = test::randomMatrix(2, 2, 301 + n);
    Matrix c = test::randomMatrix(n, n, 302 + n);
    Matrix d = test::randomMatrix(2, 2, 303 + n);
    EXPECT_TRUE(
        (kron(a, b) * kron(c, d)).isApprox(kron(a * c, b * d), 1e-10));
}

INSTANTIATE_TEST_SUITE_P(Sizes, KronProperty, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace yukta::linalg
