// Pins the parallel mu sweep to the serial loop it replaced: every
// grid point's bound, D-scales and the peak must equal a serial
// computeMu loop over the same frequency responses, bit for bit, for
// grids smaller than, equal to and larger than the worker count.
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "control/interconnect.h"
#include "core/contracts.h"
#include "robust/hinf.h"
#include "robust/mu.h"
#include "robust/ssv_design.h"
#include "support/prng.h"
#include "support/serial_mu.h"

namespace yukta::robust {
namespace {

using control::StateSpace;
using linalg::Matrix;

/** Fewer, as many and more grid points than workers on most hosts. */
const std::vector<std::size_t> kGrids = {2, 3, 31, 32, 97};

/**
 * The layer-shaped loops' 16x15 mu points cost ~0.1 s each, so they run
 * a grid below and one above a 4-core host's worker count.
 */
const std::vector<std::size_t> kLayerGrids = {2, 5};

/** Sweeps @p n on each of @p grids and compares with the serial loop. */
void
expectParallelEqualsSerial(const StateSpace& n, const BlockStructure& s,
                           const std::vector<std::size_t>& grids)
{
    for (std::size_t grid : grids) {
        testsupport::expectSweepMatchesSerial(n, s, grid);
    }
}

/** A seeded stable discrete system with @p ins inputs, @p outs outputs. */
StateSpace
seededSystem(std::uint64_t seed, std::size_t states, std::size_t ins,
             std::size_t outs)
{
    testsupport::SplitMix64 rng(seed);
    return StateSpace(testsupport::randomStableDiscrete(rng, states, 0.9),
                      testsupport::randomMatrix(rng, states, ins),
                      testsupport::randomMatrix(rng, outs, states),
                      testsupport::randomMatrix(rng, outs, ins, 0.2), 0.5);
}

/**
 * An SSV spec with the shape of a Yukta layer (@p inputs knobs,
 * @p external signals, @p outputs goals) on a seeded order-2 model.
 */
SsvSpec
layerShapedSpec(std::uint64_t seed, std::size_t inputs,
                std::size_t external, std::size_t outputs)
{
    testsupport::SplitMix64 rng(seed);
    SsvSpec spec;
    Matrix d(outputs, inputs + external);
    spec.model =
        StateSpace(testsupport::randomStableDiscrete(rng, 2, 0.7),
                   testsupport::randomMatrix(rng, 2, inputs + external),
                   testsupport::randomMatrix(rng, outputs, 2), d, 0.5);
    spec.num_inputs = inputs;
    spec.num_external = external;
    for (std::size_t i = 0; i < inputs; ++i) {
        spec.in_min.push_back(0.0);
        spec.in_max.push_back(2.0);
        spec.in_step.push_back(0.1);
        spec.in_weight.push_back(1.0);
    }
    for (std::size_t o = 0; o < outputs; ++o) {
        spec.out_bound.push_back(0.3);
        spec.out_range.push_back(2.0);
    }
    spec.guardband = 0.4;
    spec.max_order = 12;
    return spec;
}

TEST(Mu, ParallelSweepMatchesSerialComputeMu)
{
    // Seeded stable systems on multi-block structures.
    for (std::uint64_t seed : {1u, 2u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        BlockStructure s;
        s.add("a", 1, 1);
        s.add("b", 1, 1);
        s.add("c", 2, 1);
        expectParallelEqualsSerial(seededSystem(seed, 4, 4, 3), s, kGrids);
    }

    // The D-step closed loops of layer-shaped designs: HW (4 knobs,
    // 3 external signals, 4 goals: the 16x15 mu matrix) and OS (3
    // knobs, 4 external, 3 goals), each a K-step controller on its
    // generalized plant.
    struct Shape
    {
        std::size_t inputs, external, outputs;
    };
    for (Shape sh : {Shape{4, 3, 4}, Shape{3, 4, 3}}) {
        SCOPED_TRACE("layer " + std::to_string(sh.inputs) + "x" +
                     std::to_string(sh.outputs));
        const SsvSpec spec =
            layerShapedSpec(7, sh.inputs, sh.external, sh.outputs);
        const StateSpace pc = buildGeneralizedPlant(spec, true);
        const PlantPartition part = ssvPartition(spec);
        const BlockStructure s = ssvBlockStructure(spec);
        // A coarse gamma bisection: any stabilizing K-step controller
        // gives a loop of the D-step's shape.
        std::optional<HinfResult> k = hinfSynthesize(pc, part, 0.05, 1e4, 4);
        ASSERT_TRUE(k.has_value());
        const StateSpace n = control::lftLower(pc, k->k, part.nz, part.nw);
        ASSERT_TRUE(n.isStable(1e-9));
        expectParallelEqualsSerial(n, s, kLayerGrids);
    }
}

#ifdef YUKTA_CHECKS
TEST(Mu, NonFiniteSweepThrowsInTheCallersThread)
{
    // A NaN feed-through poisons every frequency response; the worker
    // that meets it throws, and the sweep rethrows it here with its
    // type rather than terminating the process.
    StateSpace n = seededSystem(5, 3, 2, 2);
    n.d(1, 0) = std::nan("");
    BlockStructure s;
    s.add("a", 1, 1);
    s.add("b", 1, 1);
    for (std::size_t grid : kGrids) {
        EXPECT_THROW(muFrequencySweep(n, s, grid),
                     contracts::ContractViolation)
            << "grid " << grid;
    }
}
#endif

}  // namespace
}  // namespace yukta::robust
