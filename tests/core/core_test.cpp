// End-to-end tests of the Yukta core: specs, interface exchange,
// training campaign, design flow, controller cache, and the scheme
// factory. A reduced design (short campaign, coarse D-K options) is
// built once and shared across tests.
#include <cstdio>
#include <cstdlib>

#include <gtest/gtest.h>

#include "core/cache.h"
#include "core/report.h"
#include "core/schemes.h"
#include "core/yukta.h"

#include <sstream>

namespace yukta::core {
namespace {

using platform::AppCatalog;
using platform::BoardConfig;
using platform::Workload;

/** Shares one reduced artifact bundle across all core tests. */
class CoreFixture : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        cfg_ = new BoardConfig(BoardConfig::odroidXu3());
        ArtifactOptions opt;
        opt.cache_tag = "coretest";
        opt.training.apps = {"swaptions", "milc"};
        opt.training.seconds_per_app = 60.0;
        opt.dk.max_iterations = 1;
        opt.dk.mu_grid = 12;
        opt.dk.bisection_steps = 8;
        artifacts_ = new Artifacts(buildArtifacts(*cfg_, opt));
    }

    static void TearDownTestSuite()
    {
        delete artifacts_;
        delete cfg_;
        artifacts_ = nullptr;
        cfg_ = nullptr;
    }

    static BoardConfig* cfg_;
    static Artifacts* artifacts_;
};

BoardConfig* CoreFixture::cfg_ = nullptr;
Artifacts* CoreFixture::artifacts_ = nullptr;

TEST(Spec, TableIIHardwareLayer)
{
    BoardConfig cfg = BoardConfig::odroidXu3();
    LayerSpec spec = hardwareLayerSpec(cfg, {10.0, 4.0, 0.4, 20.0});
    ASSERT_EQ(spec.inputs.size(), 4u);
    EXPECT_EQ(spec.inputs[2].name, "frequency_big");
    EXPECT_DOUBLE_EQ(spec.inputs[2].min, 0.2);
    EXPECT_DOUBLE_EQ(spec.inputs[2].max, 2.0);
    EXPECT_DOUBLE_EQ(spec.inputs[2].step, 0.1);
    ASSERT_EQ(spec.outputs.size(), 4u);
    EXPECT_DOUBLE_EQ(spec.outputs[0].bound_fraction, 0.2);  // perf
    EXPECT_DOUBLE_EQ(spec.outputs[1].bound_fraction, 0.1);  // power
    EXPECT_TRUE(spec.outputs[1].critical);
    EXPECT_EQ(spec.external_names.size(), 3u);
    EXPECT_DOUBLE_EQ(spec.guardband, 0.4);
    EXPECT_THROW(hardwareLayerSpec(cfg, {1.0}), std::invalid_argument);
}

TEST(Spec, TableIIISoftwareLayer)
{
    LayerSpec spec = softwareLayerSpec({5.0, 2.0, 12.0});
    ASSERT_EQ(spec.inputs.size(), 3u);
    EXPECT_EQ(spec.inputs[0].name, "#threads_big");
    ASSERT_EQ(spec.outputs.size(), 3u);
    EXPECT_DOUBLE_EQ(spec.guardband, 0.5);
    EXPECT_EQ(spec.external_names.size(), 4u);
}

TEST(Spec, InterfaceExchangePublishesSignals)
{
    LayerSpec spec = softwareLayerSpec({5.0, 2.0, 12.0});
    InterfaceExchange ex = publishInterface(spec);
    EXPECT_EQ(ex.from_layer, "software");
    EXPECT_EQ(ex.published_inputs.size(), 3u);
    EXPECT_EQ(ex.published_outputs.size(), 3u);
    std::ostringstream os;
    printInterfaceExchange(os, ex);
    EXPECT_NE(os.str().find("#threads_big"), std::string::npos);
}

TEST(Training, CampaignShapesAndRanges)
{
    BoardConfig cfg = BoardConfig::odroidXu3();
    TrainingOptions opt;
    opt.apps = {"swaptions"};
    opt.seconds_per_app = 30.0;
    TrainingData data = runTrainingCampaign(cfg, opt);
    ASSERT_FALSE(data.hw.u.empty());
    EXPECT_EQ(data.hw.u[0].size(), 7u);
    EXPECT_EQ(data.hw.y[0].size(), 4u);
    EXPECT_EQ(data.os.u[0].size(), 7u);
    EXPECT_EQ(data.os.y[0].size(), 3u);
    EXPECT_EQ(data.joint.u[0].size(), 7u);
    EXPECT_EQ(data.joint.y[0].size(), 7u);
    ASSERT_EQ(data.hw_ranges.size(), 4u);
    for (double r : data.hw_ranges) {
        EXPECT_GT(r, 0.0);
    }
}

TEST(Cache, StateSpaceRoundTrip)
{
    control::StateSpace sys(linalg::Matrix{{0.5, 0.1}, {0.0, 0.3}},
                            linalg::Matrix{{1.0}, {2.0}},
                            linalg::Matrix{{1.0, 0.0}},
                            linalg::Matrix{{0.25}}, 0.5);
    std::string path = cachePath("test_ss_roundtrip");
    ASSERT_TRUE(saveStateSpace(path, sys));
    auto loaded = loadStateSpace(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_TRUE(loaded->a.isApprox(sys.a, 1e-15));
    EXPECT_TRUE(loaded->d.isApprox(sys.d, 1e-15));
    EXPECT_DOUBLE_EQ(loaded->ts, 0.5);
    std::remove(path.c_str());
    EXPECT_FALSE(loadStateSpace(path).has_value());
}

TEST(Cache, SsvControllerRoundTrip)
{
    robust::SsvController ctrl;
    ctrl.k = control::StateSpace(linalg::Matrix{{0.5}},
                                 linalg::Matrix{{1.0, 0.5}},
                                 linalg::Matrix{{1.0}},
                                 linalg::Matrix{{0.0, 0.0}}, 0.5);
    ctrl.mu_peak = 1.25;
    ctrl.min_s = 0.8;
    ctrl.gamma = 2.0;
    ctrl.dk_iterations = 3;
    ctrl.design_bounds = {0.5};
    ctrl.guaranteed_bounds = {0.625};
    std::string path = cachePath("test_ssv_roundtrip");
    ASSERT_TRUE(saveSsvController(path, ctrl));
    auto loaded = loadSsvController(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_DOUBLE_EQ(loaded->mu_peak, 1.25);
    EXPECT_EQ(loaded->dk_iterations, 3);
    ASSERT_EQ(loaded->design_bounds.size(), 1u);
    EXPECT_DOUBLE_EQ(loaded->design_bounds[0], 0.5);
    EXPECT_TRUE(loaded->k.a.isApprox(ctrl.k.a, 1e-15));
    std::remove(path.c_str());
}

/** @return @p text with its zero-based line @p index replaced. */
std::string
replaceLine(const std::string& text, std::size_t index,
            const std::string& line)
{
    std::istringstream is(text);
    std::ostringstream os;
    std::string cur;
    for (std::size_t i = 0; std::getline(is, cur); ++i) {
        os << (i == index ? line : cur) << "\n";
    }
    return os.str();
}

/** The small controller of SsvControllerRoundTrip, as cache text. */
std::string
smallControllerText()
{
    robust::SsvController ctrl;
    ctrl.k = control::StateSpace(linalg::Matrix{{0.5}},
                                 linalg::Matrix{{1.0, 0.5}},
                                 linalg::Matrix{{1.0}},
                                 linalg::Matrix{{0.0, 0.0}}, 0.5);
    ctrl.design_bounds = {0.5};
    ctrl.guaranteed_bounds = {0.625};
    return ssvControllerToText(ctrl);
}

TEST(Cache, ControllerTextLayoutIsWhatTheHostileCasesEdit)
{
    // Lines: magic, scalars, design bounds, guaranteed bounds, ts,
    // then A's dims. The cases below overwrite lines 2 and 5.
    const std::string text = smallControllerText();
    EXPECT_TRUE(ssvControllerFromText(text).has_value());
    EXPECT_EQ(replaceLine(text, 2, "1 0.5"), text);
    EXPECT_EQ(replaceLine(text, 5, "1 1"), text);
}

TEST(Cache, WrappingMatrixDimsReadAsMiss)
{
    // 2^32 x 2^32 wraps to a zero-element product in size_t; the
    // reader used to allocate that and write past it.
    const std::string text =
        replaceLine(smallControllerText(), 5, "4294967296 4294967296");
    EXPECT_FALSE(ssvControllerFromText(text).has_value());
    // Huge but non-wrapping dims: more values than the text holds.
    EXPECT_FALSE(ssvControllerFromText(
                     replaceLine(smallControllerText(), 5, "100000 100000"))
                     .has_value());
}

TEST(Cache, HugeBoundCountReadsAsMiss)
{
    // A count the remaining text cannot hold must not size a buffer
    // (std::bad_alloc used to escape here).
    const std::string text =
        replaceLine(smallControllerText(), 2, "99999999999 0.5");
    EXPECT_FALSE(ssvControllerFromText(text).has_value());
    EXPECT_FALSE(
        ssvControllerFromText(
            replaceLine(smallControllerText(), 2, "18446744073709551615 1"))
            .has_value());
}

TEST(Cache, HostileStateSpaceFileReadsAsMiss)
{
    const std::string path = cachePath("test_ss_hostile");
    ASSERT_TRUE(atomicWriteFile(
        path, "yukta-ss 4\n0.5\n4294967296 4294967296\n0.5\n"));
    EXPECT_FALSE(loadStateSpace(path).has_value());
    ASSERT_TRUE(atomicWriteFile(path, "yukta-ss 4\n0.5\n1 1\n0.5\n"
                                      "1 1\n1\n1 1\n1\n99999 99999\n"));
    EXPECT_FALSE(loadStateSpace(path).has_value());
    std::remove(path.c_str());
}

TEST_F(CoreFixture, ArtifactsCarryCertifiedControllers)
{
    EXPECT_EQ(artifacts_->hw_ssv.controller.k.numOutputs(), 4u);
    EXPECT_EQ(artifacts_->hw_ssv.controller.k.numInputs(), 7u);
    EXPECT_EQ(artifacts_->os_ssv.controller.k.numOutputs(), 3u);
    EXPECT_EQ(artifacts_->os_ssv.controller.k.numInputs(), 7u);
    EXPECT_GT(artifacts_->hw_ssv.controller.mu_peak, 0.0);
    EXPECT_LE(artifacts_->hw_ssv.controller.k.numStates(), 20u);
    // LQG baselines have no external channel.
    EXPECT_EQ(artifacts_->hw_lqg.controller.numInputs(), 4u);
    EXPECT_EQ(artifacts_->os_lqg.controller.numInputs(), 3u);
    EXPECT_EQ(artifacts_->mono_lqg.controller.numInputs(), 7u);
    EXPECT_EQ(artifacts_->mono_lqg.controller.numOutputs(), 7u);
}

TEST_F(CoreFixture, LayerReportMentionsKeyFields)
{
    std::ostringstream os;
    printLayerReport(os, artifacts_->hw_ssv);
    std::string text = os.str();
    EXPECT_NE(text.find("hardware"), std::string::npos);
    EXPECT_NE(text.find("guardband"), std::string::npos);
    EXPECT_NE(text.find("mu_peak"), std::string::npos);
    std::ostringstream os2;
    printSchemeTable(os2);
    EXPECT_NE(os2.str().find("Coordinated heuristic"), std::string::npos);
}

TEST_F(CoreFixture, EverySchemeRuns)
{
    for (Scheme scheme : allSchemes()) {
        auto sys = makeSystem(scheme, *artifacts_,
                              Workload(AppCatalog::getWithThreads(
                                  "blackscholes", 4)),
                              7);
        auto metrics = sys.run(20.0);
        EXPECT_GT(metrics.energy, 0.0) << schemeName(scheme);
        EXPECT_EQ(metrics.periods, 40) << schemeName(scheme);
    }
}

TEST_F(CoreFixture, SchemeNamesMatchPaper)
{
    EXPECT_EQ(schemeName(Scheme::kYuktaFull), "Yukta: HW SSV+OS SSV");
    EXPECT_EQ(schemeName(Scheme::kMonolithicLqg), "Monolithic LQG");
    EXPECT_EQ(allSchemes().size(), 6u);
}

TEST_F(CoreFixture, DesignFitReported)
{
    ASSERT_EQ(artifacts_->hw_ssv.fit.size(), 4u);
    for (double f : artifacts_->hw_ssv.fit) {
        EXPECT_GT(f, 0.0);   // better than predicting the mean
        EXPECT_LE(f, 100.0);
    }
}

}  // namespace
}  // namespace yukta::core
