// Tests for the heuristic controllers and the multilayer harness.
#include <gtest/gtest.h>

#include "controllers/heuristics.h"
#include "controllers/multilayer.h"
#include "obs/metrics.h"
#include "platform/apps.h"

namespace yukta::controllers {
namespace {

using platform::BoardConfig;
using platform::DvfsTable;
using platform::HardwareInputs;
using platform::PlacementPolicy;

BoardConfig cfg = BoardConfig::odroidXu3();

TEST(CoordinatedHw, RampsUpWhileSafe)
{
    DvfsTable big(cfg.big);
    DvfsTable little(cfg.little);
    CoordinatedHwHeuristic h(cfg, big, little);
    HwSignals safe;
    safe.p_big = 1.0;
    safe.p_little = 0.1;
    safe.temp = 45.0;
    safe.threads_big = 4.0;
    safe.tpc_big = 1.0;
    safe.tpc_little = 1.0;
    HardwareInputs first = h.invoke(safe);
    HardwareInputs later = first;
    for (int i = 0; i < 12; ++i) {
        later = h.invoke(safe);
    }
    EXPECT_GE(later.freq_big, first.freq_big);
    // Sized to thread demand: 4 threads at 1/core -> 4 big cores.
    EXPECT_EQ(later.big_cores, 4u);
}

TEST(CoordinatedHw, BacksOffOnViolation)
{
    DvfsTable big(cfg.big);
    DvfsTable little(cfg.little);
    CoordinatedHwHeuristic h(cfg, big, little);
    HwSignals hot;
    hot.p_big = 3.6;  // over the 3.3 limit
    hot.p_little = 0.1;
    hot.temp = 60.0;
    hot.threads_big = 4.0;
    hot.tpc_big = 1.0;
    HardwareInputs a = h.invoke(hot);
    HardwareInputs b = h.invoke(hot);
    EXPECT_LT(b.freq_big, a.freq_big + 1e-12);
}

TEST(CoordinatedHw, LeavesMarginBelowLimit)
{
    // At a power just inside the limit, the conservative heuristic
    // must NOT keep raising frequency (it leaves headroom).
    DvfsTable big(cfg.big);
    DvfsTable little(cfg.little);
    CoordinatedHwHeuristic h(cfg, big, little);
    HwSignals near;
    near.p_big = 0.85 * cfg.power_limit_big;
    near.p_little = 0.1;
    near.temp = 60.0;
    near.threads_big = 4.0;
    near.tpc_big = 1.0;
    HardwareInputs a = h.invoke(near);
    HardwareInputs b = h.invoke(near);
    EXPECT_LE(b.freq_big, a.freq_big + 1e-12);
}

TEST(CoordinatedOs, CapacityProportionalSplit)
{
    CoordinatedOsHeuristic h(cfg);
    OsSignals s;
    s.num_threads = 8;
    s.big_cores = 4.0;
    s.little_cores = 4.0;
    s.freq_big = 2.0;
    s.freq_little = 1.4;
    PlacementPolicy p = h.invoke(s);
    // Big capacity 4*2*2=16 vs little 5.6: most threads go big.
    EXPECT_GE(p.threads_big, 5.0);
    EXPECT_LE(p.threads_big, 8.0);
    EXPECT_GE(p.tpc_big, 1.0);
}

TEST(CoordinatedOs, ConsolidatesUnderLightLoad)
{
    CoordinatedOsHeuristic h(cfg);
    OsSignals s;
    s.num_threads = 2;
    s.big_cores = 4.0;
    s.little_cores = 4.0;
    s.freq_big = 1.0;
    s.freq_little = 1.0;
    PlacementPolicy p = h.invoke(s);
    EXPECT_GE(p.tpc_little, 2.0);  // packs so cores can power down
}

TEST(DecoupledHw, MaxWhenCalmCutsOnViolation)
{
    DvfsTable big(cfg.big);
    DvfsTable little(cfg.little);
    DecoupledHwHeuristic h(cfg, big, little);
    HwSignals calm;
    calm.p_big = 1.0;
    calm.p_little = 0.1;
    calm.temp = 50.0;
    HardwareInputs a = h.invoke(calm);
    EXPECT_DOUBLE_EQ(a.freq_big, 2.0);
    EXPECT_EQ(a.big_cores, 4u);

    HwSignals hot = calm;
    hot.p_big = 4.5;
    HardwareInputs b = h.invoke(hot);
    EXPECT_LT(b.freq_big, 2.0);
    // Cores cut only after sustained violations (frequency first).
    EXPECT_EQ(b.big_cores, 4u);
    h.invoke(hot);
    HardwareInputs d = h.invoke(hot);
    EXPECT_LT(d.big_cores, 4u);

    // Back to max the moment it looks calm (the oscillation driver).
    HardwareInputs e = h.invoke(calm);
    EXPECT_DOUBLE_EQ(e.freq_big, 2.0);
    EXPECT_EQ(e.big_cores, 4u);
}

TEST(DecoupledOs, RoundRobinIgnoresCoreTypes)
{
    DecoupledOsRoundRobin h(cfg);
    OsSignals s;
    s.num_threads = 8;
    // Reports from HW are ignored: the split assumes all cores.
    s.big_cores = 1.0;
    s.little_cores = 1.0;
    PlacementPolicy p = h.invoke(s);
    EXPECT_DOUBLE_EQ(p.threads_big, 4.0);
}

TEST(Multilayer, RunsHeuristicPairToCompletion)
{
    platform::AppModel tiny;
    tiny.name = "tiny";
    tiny.ipc_big = 2.0;
    tiny.ipc_little = 0.7;
    platform::AppPhase ph;
    ph.num_threads = 4;
    ph.work_per_thread = 3.0;
    tiny.phases = {ph};

    DvfsTable big(cfg.big);
    DvfsTable little(cfg.little);
    MultilayerSystem sys(
        platform::Board(cfg, platform::Workload(tiny), 5),
        std::make_unique<CoordinatedHwHeuristic>(cfg, big, little),
        std::make_unique<CoordinatedOsHeuristic>(cfg));
    RunMetrics m = sys.run(120.0);
    EXPECT_TRUE(m.completed);
    EXPECT_GT(m.exec_time, 0.0);
    EXPECT_GT(m.energy, 0.0);
    EXPECT_NEAR(m.exd, m.energy * m.exec_time, 1e-6);
    EXPECT_GT(m.periods, 0);
}

TEST(Multilayer, HonorsTimeBudget)
{
    platform::AppModel big_app;
    big_app.name = "huge";
    big_app.ipc_big = 1.0;
    big_app.ipc_little = 0.4;
    platform::AppPhase ph;
    ph.num_threads = 8;
    ph.work_per_thread = 1e6;
    big_app.phases = {ph};

    DvfsTable big(cfg.big);
    DvfsTable little(cfg.little);
    MultilayerSystem sys(
        platform::Board(cfg, platform::Workload(big_app), 5),
        std::make_unique<DecoupledHwHeuristic>(cfg, big, little),
        std::make_unique<DecoupledOsRoundRobin>(cfg));
    RunMetrics m = sys.run(5.0);
    EXPECT_FALSE(m.completed);
    EXPECT_NEAR(m.exec_time, 5.0, 0.6);
}

TEST(Multilayer, TraceCollectedWhenEnabled)
{
    platform::AppModel tiny;
    tiny.name = "tiny";
    tiny.ipc_big = 2.0;
    tiny.ipc_little = 0.7;
    platform::AppPhase ph;
    ph.num_threads = 2;
    ph.work_per_thread = 50.0;
    tiny.phases = {ph};

    DvfsTable big(cfg.big);
    DvfsTable little(cfg.little);
    MultilayerSystem sys(
        platform::Board(cfg, platform::Workload(tiny), 5),
        std::make_unique<CoordinatedHwHeuristic>(cfg, big, little),
        std::make_unique<CoordinatedOsHeuristic>(cfg));
    sys.enableTrace(1.0);
    RunMetrics m = sys.run(10.0);
    EXPECT_GE(m.trace.size(), 8u);
}

// stepPeriod() is one timed scope: with -DYUKTA_TRACE=ON each control
// period records exactly one "profile.multilayer_tick" sample.
TEST(Multilayer, ProfilesOneTickSamplePerPeriod)
{
    platform::AppModel tiny;
    tiny.name = "tiny";
    tiny.ipc_big = 2.0;
    tiny.ipc_little = 0.7;
    platform::AppPhase ph;
    ph.num_threads = 2;
    ph.work_per_thread = 50.0;
    tiny.phases = {ph};

    DvfsTable big(cfg.big);
    DvfsTable little(cfg.little);
    MultilayerSystem sys(
        platform::Board(cfg, platform::Workload(tiny), 5),
        std::make_unique<CoordinatedHwHeuristic>(cfg, big, little),
        std::make_unique<CoordinatedOsHeuristic>(cfg));
    const obs::Histogram& ticks =
        obs::globalMetrics().histogram("profile.multilayer_tick");
    const long long before = ticks.count();
    for (int i = 0; i < 6; ++i) {
        sys.stepPeriod();
    }
    EXPECT_EQ(sys.periods(), 6);
#ifdef YUKTA_TRACE
    EXPECT_EQ(ticks.count() - before, 6);
#else
    EXPECT_EQ(ticks.count() - before, 0);
#endif
}

}  // namespace
}  // namespace yukta::controllers
