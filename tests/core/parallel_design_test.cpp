// The design flow runs in parallel (the HW and OS SSV layers on two
// threads, each mu sweep over the grid points on several) and must
// produce what the serial flow did, bit for bit: the same five design
// cache files, controllers that reload identically, and certification
// sweeps equal to a serial computeMu loop on the real layer loops.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "control/interconnect.h"
#include "core/cache.h"
#include "core/schemes.h"
#include "support/serial_mu.h"

namespace yukta::core {
namespace {

namespace fs = std::filesystem;

/** A small recipe: short campaign, one D-K round, coarse grids. */
ArtifactOptions
smallRecipe()
{
    ArtifactOptions opt;
    opt.cache_tag = "pardesign";
    opt.training.apps = {"swaptions", "milc"};
    opt.training.seconds_per_app = 60.0;
    opt.dk.max_iterations = 1;
    opt.dk.mu_grid = 12;
    opt.dk.bisection_steps = 8;
    return opt;
}

/** @return a fresh, empty directory under the system temp dir. */
std::string
freshDir(const std::string& name)
{
    const fs::path dir =
        fs::temp_directory_path() /
        ("yukta_" + name + "_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** Points the design cache at @p dir. */
void
useCacheDir(const std::string& dir)
{
    ASSERT_EQ(setenv("YUKTA_CACHE_DIR", dir.c_str(), 1), 0);
}

/** @return file name -> bytes for every file in @p dir. */
std::map<std::string, std::string>
readAll(const std::string& dir)
{
    std::map<std::string, std::string> out;
    // yukta-audit: allow(dir-iter) entries land in a name-sorted map
    for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
        std::ifstream is(e.path(), std::ios::binary);
        std::ostringstream os;
        os << is.rdbuf();
        out[e.path().filename().string()] = os.str();
    }
    return out;
}

/** @return the cache key of the @p layer file among @p files. */
std::string
keyOf(const std::map<std::string, std::string>& files,
      const std::string& layer)
{
    for (const auto& [name, bytes] : files) {
        if (name.find("_" + layer + "_") != std::string::npos) {
            return fs::path(name).stem().string();
        }
    }
    ADD_FAILURE() << "no cache file for " << layer;
    return "";
}

void
expectSameSystem(const control::StateSpace& x, const control::StateSpace& y)
{
    EXPECT_TRUE(x.a == y.a);
    EXPECT_TRUE(x.b == y.b);
    EXPECT_TRUE(x.c == y.c);
    EXPECT_TRUE(x.d == y.d);
    EXPECT_EQ(x.ts, y.ts);
}

/** One cold concurrent build of the small recipe, shared by the suite. */
class ParallelDesign : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        // yukta-audit: allow(getenv)
        const char* prev = std::getenv("YUKTA_CACHE_DIR");
        prev_cache_ = prev != nullptr ? new std::string(prev) : nullptr;
        cold_dir_ = new std::string(freshDir("pardesign_cold"));
        useCacheDir(*cold_dir_);
        cold_ = new Artifacts(buildArtifacts(
            platform::BoardConfig::odroidXu3(), smallRecipe()));
    }

    static void TearDownTestSuite()
    {
        if (prev_cache_ != nullptr) {
            useCacheDir(*prev_cache_);
        } else {
            unsetenv("YUKTA_CACHE_DIR");
        }
        fs::remove_all(*cold_dir_);
        delete cold_;
        delete cold_dir_;
        delete prev_cache_;
    }

    static Artifacts* cold_;
    static std::string* cold_dir_;
    static std::string* prev_cache_;
};

Artifacts* ParallelDesign::cold_ = nullptr;
std::string* ParallelDesign::cold_dir_ = nullptr;
std::string* ParallelDesign::prev_cache_ = nullptr;

TEST_F(ParallelDesign, WritesTheSerialFlowsCacheFilesByteForByte)
{
    const std::map<std::string, std::string> concurrent =
        readAll(*cold_dir_);
    ASSERT_EQ(concurrent.size(), 5u);

    // The serial flow: buildArtifacts' calls, one after another, with
    // the keys it used, into a second fresh directory.
    const std::string serial_dir = freshDir("pardesign_serial");
    useCacheDir(serial_dir);
    const ArtifactOptions opt = smallRecipe();
    const platform::BoardConfig cfg = platform::BoardConfig::odroidXu3();
    const TrainingData training = runTrainingCampaign(cfg, opt.training);
    const LayerSpec hw_spec =
        hardwareLayerSpec(cfg, training.hw_ranges, opt.hw_guardband,
                          opt.hw_perf_bound, opt.hw_input_weight);
    const LayerSpec os_spec =
        softwareLayerSpec(training.os_ranges, opt.os_guardband,
                          opt.os_bound, opt.os_input_weight);
    auto keyed = [&](const std::string& layer, bool dk) {
        DesignOptions o;
        if (dk) {
            o.dk = opt.dk;
        }
        o.cache_key = keyOf(concurrent, layer);
        return o;
    };
    auto bounds = [](const LayerSpec& spec) {
        std::vector<double> b;
        for (const OutputSpec& o : spec.outputs) {
            b.push_back(o.bound());
        }
        return b;
    };
    ASSERT_TRUE(
        designSsvLayer(hw_spec, training.hw, 3, keyed("hwssv", true)));
    ASSERT_TRUE(
        designSsvLayer(os_spec, training.os, 4, keyed("osssv", true)));
    ASSERT_TRUE(designLqgLayer(hw_spec.inputs, bounds(hw_spec), training.hw,
                               3, keyed("hwlqg", false)));
    ASSERT_TRUE(designLqgLayer(os_spec.inputs, bounds(os_spec), training.os,
                               4, keyed("oslqg", false)));
    std::vector<SignalSpec> joint_inputs = hw_spec.inputs;
    joint_inputs.insert(joint_inputs.end(), os_spec.inputs.begin(),
                        os_spec.inputs.end());
    std::vector<double> joint_bounds = bounds(hw_spec);
    for (double b : bounds(os_spec)) {
        joint_bounds.push_back(b);
    }
    ASSERT_TRUE(designLqgLayer(joint_inputs, joint_bounds, training.joint,
                               0, keyed("monolqg", false)));

    EXPECT_EQ(readAll(serial_dir), concurrent);
    fs::remove_all(serial_dir);
}

TEST_F(ParallelDesign, WarmRebuildLoadsIdenticalControllers)
{
    useCacheDir(*cold_dir_);
    const Artifacts warm =
        buildArtifacts(platform::BoardConfig::odroidXu3(), smallRecipe());
    EXPECT_EQ(ssvControllerToText(warm.hw_ssv.controller),
              ssvControllerToText(cold_->hw_ssv.controller));
    EXPECT_EQ(ssvControllerToText(warm.os_ssv.controller),
              ssvControllerToText(cold_->os_ssv.controller));
    expectSameSystem(warm.hw_lqg.controller, cold_->hw_lqg.controller);
    expectSameSystem(warm.os_lqg.controller, cold_->os_lqg.controller);
    expectSameSystem(warm.mono_lqg.controller, cold_->mono_lqg.controller);
}

TEST_F(ParallelDesign, RealLayerSweepsMatchSerialComputeMu)
{
    // The certification loops of the real HW and OS designs: the
    // discrete validation plant closed by the shipped controller.
    const ArtifactOptions opt = smallRecipe();
    const struct
    {
        const LayerDesign* design;
        std::size_t num_external;
    } layers[] = {{&cold_->hw_ssv, 3}, {&cold_->os_ssv, 4}};
    for (const auto& layer : layers) {
        const robust::SsvController& ctrl = layer.design->controller;
        robust::SsvSpec cert = ssvSpecFor(
            layer.design->spec, layer.design->model, layer.num_external,
            opt.dk);
        cert.perf_dc_boost = 1.0;
        cert.out_boost.clear();
        const robust::PlantPartition part = robust::ssvPartition(cert);
        const robust::BlockStructure s = robust::ssvBlockStructure(cert);
        const control::StateSpace n =
            control::lftLower(robust::buildGeneralizedPlant(cert, false),
                              ctrl.k, part.nz, part.nw);

        const robust::MuSweep par =
            testsupport::expectSweepMatchesSerial(n, s, opt.dk.mu_grid);
        // And it is the sweep the design certified itself with.
        EXPECT_EQ(par.peak, ctrl.sweep.peak);
        EXPECT_EQ(par.freqs, ctrl.sweep.freqs);
    }
}

}  // namespace
}  // namespace yukta::core
