// The online adaptation loop through the fleet: drift-triggered
// re-synthesis and bumpless hot-swap run end to end inside FleetSim,
// the armed loop is invisible on the shipped plant (bit-identical
// digests), checkpoints carry the adapter (RLS, CUSUM, swapped
// controller text) across the swap, restore refuses an
// adaptation-armed mismatch, and a swapped run does not depend on how
// the boards are partitioned into shards.
#include <filesystem>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "fault/plan.h"
#include "fleet/artifacts.h"
#include "fleet/fleet.h"

namespace {

using yukta::fleet::CheckpointConfig;
using yukta::fleet::FleetConfig;
using yukta::fleet::FleetMetrics;
using yukta::fleet::FleetSim;

/**
 * Small adaptive fleet with a compressed adaptation timeline: armed
 * at 15 s (warmup + calibration), optional permanent 2.2x power
 * drift at 20 s, settle/swap within ~15 s of detection. 120 s total
 * leaves a long post-swap tail.
 */
FleetConfig
adaptConfig(bool adapt, bool drift, int boards = 1)
{
    FleetConfig cfg;
    cfg.boards = boards;
    cfg.sim_seconds = 120.0;
    cfg.seed = 5;
    cfg.adapt = adapt;
    cfg.adapt_options.warmup_ticks = 10;
    cfg.adapt_options.calibration_ticks = 20;
    cfg.adapt_options.settle_ticks = 20;
    cfg.adapt_options.swap_delay_ticks = 4;
    cfg.adapt_options.cooldown_ticks = 40;
    if (drift) {
        cfg.faults =
            yukta::fault::FaultPlan::parse("board0:drift@20+9999*2.2");
    }
    return cfg;
}

std::string
checkpointDir(const std::string& tag)
{
    const std::string dir =
        ::testing::TempDir() + "yukta_adapt_ckpt_" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

// Drift -> CUSUM fire -> pool re-synthesis -> bumpless hot-swap, all
// inside a fleet run, deterministically across worker counts.
TEST(FleetAdapt, HotSwapRunsEndToEndAcrossWorkerCounts)
{
    const auto artifacts = yukta::fleet::fleetArtifacts();
    FleetMetrics serial;
    FleetMetrics parallel;
    {
        FleetSim sim(adaptConfig(true, true), artifacts);
        serial = sim.run(1);
    }
    {
        FleetSim sim(adaptConfig(true, true), artifacts);
        parallel = sim.run(4);
    }
    EXPECT_GE(serial.adapt.drift_events, 1);
    EXPECT_GE(serial.adapt.syntheses, 1);
    EXPECT_GE(serial.adapt.swaps, 1);
    // The synthesis job runs on the pool; the simulated outcome must
    // not know how many workers ran it.
    EXPECT_EQ(serial.digest(), parallel.digest());
    EXPECT_EQ(serial.adapt.swaps, parallel.adapt.swaps);
}

// On the plant the shipped model describes, the armed loop must be
// invisible: no drift events and a digest bit-identical to the
// disarmed run (adapt is excluded from the run's canonical identity).
TEST(FleetAdapt, ArmedLoopIsInvisibleWithoutDrift)
{
    const auto artifacts = yukta::fleet::fleetArtifacts();
    FleetMetrics armed;
    FleetMetrics disarmed;
    {
        FleetSim sim(adaptConfig(true, false), artifacts);
        armed = sim.run(2);
    }
    {
        FleetSim sim(adaptConfig(false, false), artifacts);
        disarmed = sim.run(2);
    }
    EXPECT_EQ(armed.adapt.drift_events, 0);
    EXPECT_EQ(armed.adapt.swaps, 0);
    EXPECT_EQ(armed.digest(), disarmed.digest());
}

// A checkpoint taken after the hot-swap must restore into a fresh
// process-equivalent sim -- swapped controller re-materialized from
// its canonical text, RLS/CUSUM state resumed -- and finish
// bit-identical to the uninterrupted run.
TEST(FleetAdapt, CheckpointResumeAcrossSwapIsBitIdentical)
{
    const auto artifacts = yukta::fleet::fleetArtifacts();
    const std::string dir = checkpointDir("swap");
    // 120 epochs = 60 s: past detection (~20 s), settle (10 s), and
    // the swap; well before the end.
    const int split = 120;
    std::uint64_t base = 0;
    long long base_swaps = 0;
    {
        CheckpointConfig ckpt;
        ckpt.every_epochs = split;
        ckpt.dir = dir;
        FleetSim sim(adaptConfig(true, true), artifacts);
        FleetMetrics m = sim.run(2, ckpt);
        base = m.digest();
        base_swaps = m.adapt.swaps;
    }
    ASSERT_GE(base_swaps, 1) << "split must land after the swap";
    std::uint64_t resumed = 0;
    {
        FleetSim sim(adaptConfig(true, true), artifacts);
        sim.restoreCheckpoint(dir + "/fleet-" + std::to_string(split) +
                              ".ckpt");
        EXPECT_EQ(sim.epoch(), split);
        resumed = sim.run(1).digest();
    }
    EXPECT_EQ(base, resumed);
    std::filesystem::remove_all(dir);
}

// A checkpoint records whether each board carried an adapter;
// restoring it into a sim with adaptation configured differently
// must refuse rather than silently drop (or invent) adapter state.
TEST(FleetAdapt, RestoreRefusesAdaptationMismatch)
{
    const auto artifacts = yukta::fleet::fleetArtifacts();
    const std::string dir = checkpointDir("mismatch");
    const int split = 60;
    {
        CheckpointConfig ckpt;
        ckpt.every_epochs = split;
        ckpt.dir = dir;
        FleetSim sim(adaptConfig(true, true), artifacts);
        (void)sim.run(2, ckpt);
    }
    const std::string path =
        dir + "/fleet-" + std::to_string(split) + ".ckpt";
    {
        FleetSim sim(adaptConfig(false, true), artifacts);
        EXPECT_THROW(sim.restoreCheckpoint(path), std::runtime_error);
    }
    {
        // The adapt-armed sim restores its own checkpoint fine.
        FleetSim sim(adaptConfig(true, true), artifacts);
        sim.restoreCheckpoint(path);
        EXPECT_EQ(sim.epoch(), split);
    }
    std::filesystem::remove_all(dir);

    // And the converse: a checkpoint from a non-adaptive run must not
    // restore into an adapt-armed sim.
    const std::string dir2 = checkpointDir("mismatch2");
    {
        CheckpointConfig ckpt;
        ckpt.every_epochs = split;
        ckpt.dir = dir2;
        FleetSim sim(adaptConfig(false, true), artifacts);
        (void)sim.run(2, ckpt);
    }
    {
        FleetSim sim(adaptConfig(true, true), artifacts);
        EXPECT_THROW(
            sim.restoreCheckpoint(dir2 + "/fleet-" +
                                  std::to_string(split) + ".ckpt"),
            std::runtime_error);
    }
    std::filesystem::remove_all(dir2);
}

// Shards are shared-nothing: a hot-swap on board 0 must not perturb
// the other boards whether they share its shard or each have their
// own (the default layout).
TEST(FleetAdapt, SwappedRunIsIdenticalAcrossShardLayouts)
{
    const auto artifacts = yukta::fleet::fleetArtifacts();
    FleetConfig one_shard = adaptConfig(true, true, 4);
    one_shard.shards = 1;  // All four boards in one shard.
    FleetConfig per_board = one_shard;
    per_board.shards = 0;  // One shard per board.

    FleetMetrics m1;
    FleetMetrics m4;
    {
        FleetSim sim(one_shard, artifacts);
        m1 = sim.run(2);
    }
    {
        FleetSim sim(per_board, artifacts);
        m4 = sim.run(2);
    }
    ASSERT_GE(m1.adapt.swaps, 1) << "the swap must actually happen";
    EXPECT_EQ(m1.digest(), m4.digest());
    EXPECT_EQ(m1.adapt.swaps, m4.adapt.swaps);
}

}  // namespace
