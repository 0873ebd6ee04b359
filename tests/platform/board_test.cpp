#include "platform/board.h"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/stateio.h"
#include "platform/apps.h"

namespace yukta::platform {
namespace {

Board
makeBoard(const std::string& app = "blackscholes")
{
    return Board(BoardConfig::odroidXu3(), Workload(AppCatalog::get(app)), 3);
}

TEST(Board, TimeAndEnergyAdvance)
{
    Board b = makeBoard();
    b.run(1.0);
    EXPECT_NEAR(b.elapsed(), 1.0, 1e-9);
    EXPECT_GT(b.energy(), 0.0);
    EXPECT_GT(b.energyDelay(), 0.0);
    EXPECT_FALSE(b.done());
}

TEST(Board, HardwareInputsQuantizedAndClamped)
{
    Board b = makeBoard();
    HardwareInputs in;
    in.big_cores = 9;
    in.little_cores = 0;
    in.freq_big = 1.73;
    in.freq_little = 5.0;
    b.applyHardwareInputs(in);
    const HardwareInputs& req = b.requestedHardware();
    EXPECT_EQ(req.big_cores, 4u);
    EXPECT_EQ(req.little_cores, 1u);
    EXPECT_DOUBLE_EQ(req.freq_big, 1.7);
    EXPECT_DOUBLE_EQ(req.freq_little, 1.4);
}

TEST(Board, LowerFrequencyLowersPowerAndPerformance)
{
    Board fast = makeBoard();
    Board slow = makeBoard();
    HardwareInputs in;
    in.freq_big = 2.0;
    in.freq_little = 1.4;
    fast.applyHardwareInputs(in);
    in.freq_big = 0.6;
    in.freq_little = 0.4;
    slow.applyHardwareInputs(in);
    fast.run(5.0);
    slow.run(5.0);
    EXPECT_GT(fast.energy(), slow.energy());
    EXPECT_GT(fast.perfCounters().total(), slow.perfCounters().total());
}

TEST(Board, PerfScalesWithThreadPlacement)
{
    // All 8 threads on the big cluster vs all on little: big wins.
    Board big_all = makeBoard("gamess");
    Board little_all = makeBoard("gamess");
    big_all.applyPlacementPolicy({8.0, 2.0, 1.0});
    little_all.applyPlacementPolicy({0.0, 1.0, 2.0});
    big_all.run(5.0);
    little_all.run(5.0);
    EXPECT_GT(big_all.perfCounters().instr_big, 1.0);
    EXPECT_GT(little_all.perfCounters().instr_little, 1.0);
    EXPECT_GT(big_all.perfCounters().total(),
              1.5 * little_all.perfCounters().total());
}

TEST(Board, SensorsLagTruth)
{
    Board b = makeBoard();
    b.run(0.1);  // less than one sensor window
    EXPECT_DOUBLE_EQ(b.sensedPowerBig(), 0.0);
    b.run(0.3);
    EXPECT_GT(b.sensedPowerBig(), 0.0);
}

TEST(Board, EmergencyEngagesAtMaxSettings)
{
    // Full throttle on a compute-heavy app must trip the power
    // emergency within a couple of seconds (that is what the
    // Decoupled heuristic leans on).
    Board b = makeBoard("gamess");
    HardwareInputs in;
    in.freq_big = 2.0;
    in.freq_little = 1.4;
    b.applyHardwareInputs(in);
    b.applyPlacementPolicy({8.0, 2.0, 1.0});
    b.run(4.0);
    EXPECT_GT(b.emergencyTime(), 0.0);
    // The applied frequency should have been capped below the request.
    EXPECT_LT(b.appliedHardware().freq_big, 2.0);
}

TEST(Board, SafeOperatingPointStaysCalm)
{
    Board b = makeBoard("streamcluster");
    HardwareInputs in;
    in.freq_big = 0.8;
    in.freq_little = 0.6;
    b.applyHardwareInputs(in);
    b.run(5.0);
    EXPECT_DOUBLE_EQ(b.emergencyTime(), 0.0);
    EXPECT_LT(b.truePowerBig(), b.config().power_limit_big);
}

TEST(Board, WorkloadRunsToCompletion)
{
    // Tiny custom app finishes quickly.
    AppModel tiny;
    tiny.name = "tiny";
    tiny.ipc_big = 2.0;
    tiny.ipc_little = 1.0;
    AppPhase ph;
    ph.num_threads = 2;
    ph.work_per_thread = 1.0;  // 1 giga-instruction
    tiny.phases = {ph};
    Board b(BoardConfig::odroidXu3(), Workload(tiny), 3);
    b.run(60.0);
    EXPECT_TRUE(b.done());
    double t_done = b.elapsed();
    // run() past completion is a no-op.
    b.run(1.0);
    EXPECT_DOUBLE_EQ(b.elapsed(), t_done);
}

TEST(Board, ThreadCountTracksPhases)
{
    Board b = makeBoard("blackscholes");
    EXPECT_EQ(b.threadsRunning(), 1u);  // serial phase
    // Serial phase (25 G instr) completes in well under a minute at
    // full speed.
    b.run(30.0);
    EXPECT_EQ(b.threadsRunning(), 8u);
}

TEST(Board, SpareComputeReflectsPlacement)
{
    Board b = makeBoard("gamess");
    b.applyPlacementPolicy({2.0, 1.0, 1.0});
    b.run(0.01);
    // 2 threads big on 4 cores: SC_big = 2 - (2-4) = 4.
    EXPECT_DOUBLE_EQ(b.spareCompute(ClusterId::kBig), 4.0);
}

TEST(Board, TraceRecordsSamples)
{
    Board b = makeBoard();
    b.enableTrace(0.1);
    b.run(1.0);
    ASSERT_GE(b.trace().size(), 9u);
    const TraceSample& s = b.trace().back();
    EXPECT_GT(s.time, 0.0);
    EXPECT_GT(s.p_big + s.p_little, 0.0);
    EXPECT_GT(s.temp, 20.0);
    EXPECT_GE(s.bips, 0.0);
}

TEST(Board, DeterministicForSameSeed)
{
    Board a(BoardConfig::odroidXu3(),
            Workload(AppCatalog::get("bodytrack")), 42);
    Board b(BoardConfig::odroidXu3(),
            Workload(AppCatalog::get("bodytrack")), 42);
    a.run(3.0);
    b.run(3.0);
    EXPECT_DOUBLE_EQ(a.energy(), b.energy());
    EXPECT_DOUBLE_EQ(a.perfCounters().total(), b.perfCounters().total());
    EXPECT_DOUBLE_EQ(a.sensedPowerBig(), b.sensedPowerBig());
}

TEST(Board, MemoryBoundAppGainsLessFromFrequency)
{
    // Two threads on two big cores keeps both apps inside the power
    // envelope, so the TMU never confounds the comparison.
    auto bips_at = [](const std::string& app, double f) {
        Board b(BoardConfig::odroidXu3(),
                Workload(AppCatalog::getWithThreads(app, 2)), 3);
        HardwareInputs in;
        in.big_cores = 2;
        in.little_cores = 1;
        in.freq_big = f;
        in.freq_little = 0.4;
        b.applyHardwareInputs(in);
        b.applyPlacementPolicy({2.0, 1.0, 1.0});
        b.run(3.0);
        return b.perfCounters().total() / b.elapsed();
    };
    double gamess_gain = bips_at("gamess", 1.6) / bips_at("gamess", 0.8);
    double mcf_gain = bips_at("mcf", 1.6) / bips_at("mcf", 0.8);
    EXPECT_GT(gamess_gain, mcf_gain + 0.2);
}

/** Substeps after which the runnable thread count grew: a phase began. */
std::vector<long>
phaseStarts(const std::string& app, long max_steps)
{
    Board b = makeBoard(app);
    std::vector<long> starts;
    std::size_t prev = b.threadsRunning();
    for (long s = 1; s <= max_steps && !b.done(); ++s) {
        b.run(1e-3);
        if (b.threadsRunning() > prev) {
            starts.push_back(s);
        }
        prev = b.threadsRunning();
    }
    return starts;
}

std::string
boardBytes(const Board& b)
{
    obs::StateWriter w;
    b.save(w);
    return w.dump();
}

/**
 * Saves a board one substep before the phase transition at @p start,
 * restores it into a fresh board and runs both on: the restored run
 * must be bit-identical to the uninterrupted one.
 */
void
expectResumeAcrossPhaseStart(const std::string& app, long start)
{
    SCOPED_TRACE(app + " phase start at substep " + std::to_string(start));
    Board uninterrupted = makeBoard(app);
    uninterrupted.run(static_cast<double>(start - 1) * 1e-3);
    const std::string before = boardBytes(uninterrupted);

    Board resumed = makeBoard(app);
    obs::StateReader r(before);
    resumed.load(r);
    EXPECT_EQ(boardBytes(resumed), before);

    uninterrupted.run(2.0);
    resumed.run(2.0);
    EXPECT_EQ(resumed.threadsRunning(), uninterrupted.threadsRunning());
    EXPECT_EQ(resumed.energy(), uninterrupted.energy());
    EXPECT_EQ(resumed.perfCounters().instr_big,
              uninterrupted.perfCounters().instr_big);
    EXPECT_EQ(resumed.perfCounters().instr_little,
              uninterrupted.perfCounters().instr_little);
    EXPECT_EQ(boardBytes(resumed), boardBytes(uninterrupted));
}

TEST(Board, ResumeAcrossSerialToParallelIsBitIdentical)
{
    const std::vector<long> starts = phaseStarts("blackscholes", 60000);
    ASSERT_EQ(starts.size(), 1u);  // serial -> 8 parallel threads
    expectResumeAcrossPhaseStart("blackscholes", starts[0]);
}

TEST(Board, ResumeAcrossEveryX264PhaseIsBitIdentical)
{
    // x264 chains four phases: serial, 8 threads, 5 threads, 8 threads.
    const std::vector<long> starts = phaseStarts("x264", 300000);
    ASSERT_EQ(starts.size(), 3u);
    for (long start : starts) {
        expectResumeAcrossPhaseStart("x264", start);
    }
}

TEST(Board, LoadRejectsThreadOnMissingCore)
{
    // A checkpoint that places a thread on a core its cluster does not
    // have is rejected, not used to index the per-core counts.
    Board b = makeBoard("gamess");
    b.run(0.01);
    std::string bytes = boardBytes(b);
    const std::string key = "\nboard.place.core.0=";
    const std::size_t at = bytes.find(key);
    ASSERT_NE(at, std::string::npos);
    const std::size_t end = bytes.find('\n', at + 1);
    bytes.replace(at + key.size(), end - at - key.size(), "9");

    Board fresh = makeBoard("gamess");
    obs::StateReader r(bytes);
    EXPECT_THROW(fresh.load(r), std::runtime_error);
}

/** One instance's workload fields, in the shape Workload::save writes. */
struct InstanceImage
{
    std::uint64_t phase = 0;
    bool finished = false;
    std::uint64_t threads = 0;
    std::vector<double> remaining;  ///< Written for each thread.
};

/**
 * @p bytes (a one-instance board snapshot) with its workload fields
 * rewritten to @p inst through a StateWriter: the snapshot stays
 * well-formed, so only Workload::load's own checks can reject it.
 */
std::string
withWorkload(const std::string& bytes, const InstanceImage& inst)
{
    obs::StateWriter w;
    w.u64("workload.instances", 1);
    w.u64("workload.i0.phase", inst.phase);
    w.boolean("workload.i0.finished", inst.finished);
    w.u64("workload.i0.threads", inst.threads);
    for (std::size_t t = 0; t < inst.remaining.size(); ++t) {
        const std::string tp = "workload.i0.t" + std::to_string(t);
        w.f64(tp + ".remaining", inst.remaining[t]);
        w.boolean(tp + ".at_barrier", false);
    }
    const std::size_t from = bytes.find("workload.instances=");
    const std::size_t to = bytes.find("workload.version=");
    EXPECT_NE(from, std::string::npos);
    EXPECT_NE(to, std::string::npos);
    return bytes.substr(0, from) + w.dump() + bytes.substr(to);
}

/** Loads @p bytes into a fresh blackscholes board; @return the error. */
std::string
loadError(const std::string& bytes)
{
    Board fresh = makeBoard();
    obs::StateReader r(bytes);
    try {
        fresh.load(r);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

/** A blackscholes snapshot in its first (serial, one-thread) phase. */
std::string
serialPhaseBytes()
{
    Board b = makeBoard();
    b.run(0.01);
    return boardBytes(b);
}

TEST(Board, LoadAcceptsAWellFormedWorkloadImage)
{
    // The rewrite itself keeps a reachable state loadable, so the
    // rejections below are the checks' doing.
    const std::string bytes = serialPhaseBytes();
    EXPECT_EQ(loadError(withWorkload(bytes, {0, false, 1, {5.0}})), "");
    // blackscholes' last phase, finished: no threads.
    EXPECT_EQ(loadError(withWorkload(bytes, {1, true, 0, {}})), "");
}

TEST(Board, LoadRejectsPhasePastTheApp)
{
    // blackscholes has two phases; phase 7 would index past them on
    // the next threadInfo().
    const std::string err =
        loadError(withWorkload(serialPhaseBytes(), {7, false, 1, {5.0}}));
    EXPECT_NE(err.find("phase past"), std::string::npos) << err;
}

TEST(Board, LoadRejectsThreadCountOffThePhase)
{
    const std::string err =
        loadError(withWorkload(serialPhaseBytes(), {0, false, 3,
                                                    {5.0, 5.0, 5.0}}));
    EXPECT_NE(err.find("thread count"), std::string::npos) << err;
}

TEST(Board, LoadRejectsHugeThreadCountBeforeAllocating)
{
    // Rejected from the count alone: no 2^62-entry resize is tried.
    const std::string err = loadError(
        withWorkload(serialPhaseBytes(), {0, false, 1ULL << 62, {}}));
    EXPECT_NE(err.find("thread count"), std::string::npos) << err;
}

TEST(Board, LoadRejectsFinishedInstanceWithThreads)
{
    const std::string err =
        loadError(withWorkload(serialPhaseBytes(), {1, true, 1, {0.0}}));
    EXPECT_NE(err.find("thread count"), std::string::npos) << err;
}

TEST(Board, LoadRejectsNanOrNegativeRemaining)
{
    for (double bad : {std::nan(""), -1.0}) {
        const std::string err =
            loadError(withWorkload(serialPhaseBytes(), {0, false, 1, {bad}}));
        EXPECT_NE(err.find("remaining"), std::string::npos)
            << bad << ": " << err;
    }
}

TEST(Board, BarrierGroupsStayPerInstancePastSixteen)
{
    // 17 single-thread instances: a barrier group of one never drags,
    // so strong coupling must give exactly the uncoupled result. The
    // last two instances run at different rates (15 shares a big core
    // four ways, 16 has a little core to itself); had they shared a
    // group, the faster one would be dragged toward the slower.
    auto run = [](double coupling) {
        AppModel app;
        app.name = "solo";
        app.ipc_big = 1.6;
        app.ipc_little = 0.6;
        AppPhase ph;
        ph.num_threads = 1;
        ph.work_per_thread = 1000.0;
        ph.barrier_coupling = coupling;
        app.phases = {ph};
        Board b(BoardConfig::odroidXu3(),
                Workload(std::vector<AppModel>(17, app)), 3);
        b.applyPlacementPolicy({16.0, 4.0, 1.0});
        b.run(1.0);
        return b.perfCounters();
    };
    const PerfCounters coupled = run(0.9);
    const PerfCounters free = run(0.0);
    EXPECT_EQ(coupled.instr_big, free.instr_big);
    EXPECT_EQ(coupled.instr_little, free.instr_little);
}

}  // namespace
}  // namespace yukta::platform
