#ifndef YUKTA_TESTS_SUPPORT_SERIAL_MU_H_
#define YUKTA_TESTS_SUPPORT_SERIAL_MU_H_

/**
 * @file
 * The mu sweep computed on one thread, as a serial computeMu loop over
 * one frequency-response batch. Test-only: the oracle the parallel
 * robust::muFrequencySweep is compared against, bit for bit.
 */

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "control/state_space.h"
#include "robust/mu.h"

namespace yukta::testsupport {

/** @return the sweep of @p n over @p freqs, one grid point at a time. */
inline robust::MuSweep
serialMuSweep(const control::StateSpace& n,
              const robust::BlockStructure& s,
              const std::vector<double>& freqs)
{
    robust::MuSweep out;
    out.freqs = freqs;
    const std::vector<linalg::CMatrix> resp = n.freqResponseBatch(freqs);
    for (std::size_t i = 0; i < freqs.size(); ++i) {
        robust::MuBound b = robust::computeMu(resp[i], s);
        if (b.upper > out.peak) {
            out.peak = b.upper;
            out.peak_freq = freqs[i];
        }
        out.mu.push_back(std::move(b));
    }
    return out;
}

/**
 * Sweeps @p n on @p grid points with muFrequencySweep and expects
 * every bound, D-scale and the peak to equal the serial oracle's.
 * @return the parallel sweep.
 */
inline robust::MuSweep
expectSweepMatchesSerial(const control::StateSpace& n,
                         const robust::BlockStructure& s, std::size_t grid)
{
    SCOPED_TRACE("grid " + std::to_string(grid));
    robust::MuSweep par = robust::muFrequencySweep(n, s, grid);
    const robust::MuSweep ser = serialMuSweep(n, s, par.freqs);
    EXPECT_EQ(par.freqs.size(), grid);
    EXPECT_EQ(par.mu.size(), grid);
    for (std::size_t i = 0; i < par.mu.size() && i < ser.mu.size(); ++i) {
        EXPECT_EQ(par.mu[i].upper, ser.mu[i].upper) << "point " << i;
        EXPECT_EQ(par.mu[i].lower, ser.mu[i].lower) << "point " << i;
        EXPECT_EQ(par.mu[i].d_scales, ser.mu[i].d_scales) << "point " << i;
    }
    EXPECT_EQ(par.peak, ser.peak);
    EXPECT_EQ(par.peak_freq, ser.peak_freq);
    return par;
}

}  // namespace yukta::testsupport

#endif  // YUKTA_TESTS_SUPPORT_SERIAL_MU_H_
