// Bit-exact pins of the dense kernels under the D-K K-step: the
// continuous Riccati solver, the a-posteriori H-infinity norm and the
// largest singular value. Each pin is the FNV-1a of the raw IEEE-754
// bytes of the result, captured from the build that defined the
// Matrix/CMatrix element accessors out of line. Inlining the accessors
// (or any other pure speedup) must leave every bit where it was; a
// reordered sum or a contracted multiply-add fails here first.
#include <cstdint>
#include <cstring>
#include <ios>

#include <gtest/gtest.h>

#include "control/riccati.h"
#include "control/state_space.h"
#include "linalg/cmatrix.h"
#include "linalg/matrix.h"
#include "linalg/svd.h"
#include "robust/hinf.h"
#include "support/prng.h"

namespace {

using yukta::control::StateSpace;
using yukta::linalg::CMatrix;
using yukta::linalg::Complex;
using yukta::linalg::Matrix;
using yukta::testsupport::SplitMix64;
using yukta::testsupport::randomMatrix;
using yukta::testsupport::randomStableContinuous;

/** FNV-1a over the bytes of a sequence of doubles. */
class Fnv
{
  public:
    void add(double v)
    {
        unsigned char bytes[sizeof v];
        std::memcpy(bytes, &v, sizeof v);
        for (unsigned char b : bytes) {
            h_ ^= b;
            h_ *= 1099511628211ull;
        }
    }

    void add(const Matrix& m)
    {
        for (std::size_t r = 0; r < m.rows(); ++r) {
            for (std::size_t c = 0; c < m.cols(); ++c) {
                add(m(r, c));
            }
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

TEST(KernelPin, CareSolutionIsBitIdentical)
{
    // The H-infinity control Riccati shape: G = B2 B2' - gamma^-2 B1 B1'
    // (indefinite), Q = C' C, on a 20-state Hurwitz A.
    SplitMix64 rng(0x6361726570696eull);
    const Matrix a = randomStableContinuous(rng, 20);
    const Matrix b1 = randomMatrix(rng, 20, 2);
    const Matrix b2 = randomMatrix(rng, 20, 3);
    const Matrix c = randomMatrix(rng, 4, 20);
    const double gamma = 4.0;
    const Matrix g = b2 * b2.transpose() -
                     (1.0 / (gamma * gamma)) * (b1 * b1.transpose());
    const Matrix q = c.transpose() * c;

    const auto res = yukta::control::care(a, g, q);
    ASSERT_TRUE(res.has_value());
    Fnv h;
    h.add(res->x);
    h.add(res->residual);
    EXPECT_EQ(h.value(), 0xa493116107f539daull)
        << "care drifted; hash=0x" << std::hex << h.value();
}

TEST(KernelPin, HinfNormIsBitIdentical)
{
    SplitMix64 rng(0x68696e666e6f726dull);
    const StateSpace sys(randomStableContinuous(rng, 10, 0.2),
                         randomMatrix(rng, 10, 3), randomMatrix(rng, 2, 10),
                         randomMatrix(rng, 2, 3, 0.1));
    const double norm = yukta::robust::hinfNorm(sys);
    Fnv h;
    h.add(norm);
    EXPECT_EQ(h.value(), 0xb8461afccb469a8full)
        << "hinfNorm drifted; norm=" << std::hexfloat << norm;
}

TEST(KernelPin, SigmaMaxIsBitIdentical)
{
    SplitMix64 rng(0x7369676d61ull);
    const Matrix re = randomMatrix(rng, 9, 7);
    const Matrix im = randomMatrix(rng, 9, 7);
    CMatrix z(9, 7);
    for (std::size_t r = 0; r < 9; ++r) {
        for (std::size_t c = 0; c < 7; ++c) {
            z(r, c) = Complex(re(r, c), im(r, c));
        }
    }
    Fnv h;
    h.add(yukta::linalg::sigmaMax(z));
    h.add(yukta::linalg::sigmaMax(re));
    h.add(yukta::linalg::sigmaMax(im.transpose()));
    EXPECT_EQ(h.value(), 0x914c81e29ec876f8ull)
        << "sigmaMax drifted; hash=0x" << std::hex << h.value();
}

}  // namespace
