// Bit-exact pins of the simulated plant. Every board below runs the
// same scripted actuation schedule and must land on exactly the
// energy, instruction counts, hotspot temperature, violation time
// and emergency time recorded here as hex-float literals. A change
// to the plant's arithmetic -- even a reordered sum -- fails this
// test; a pure speedup of the plant must not.
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "platform/apps.h"
#include "platform/board.h"

namespace yukta::platform {
namespace {

/** One pinned board outcome. */
struct Pin
{
    const char* name;
    double energy;
    double instr_big;
    double instr_little;
    double hotspot;
    double violation_time;
    double emergency_time;
};

Workload
makeWorkload(const std::string& name)
{
    if (name == "service") {
        return Workload(AppCatalog::makeServiceApp(8));
    }
    for (const std::string& mix : AppCatalog::mixNames()) {
        if (mix == name) {
            return AppCatalog::getMix(name);
        }
    }
    return Workload(AppCatalog::get(name));
}

/**
 * The scripted schedule, 24 half-second slots (12 s):
 *   - a hardware request every slot (frequency changes every time,
 *     core counts now and then);
 *   - one placement-policy change at 2 s;
 *   - a max-settings stretch from 4 s to 8 s, which trips the TMU
 *     on the heavier boards;
 *   - low settings afterwards, so the TMU caps get released.
 */
void
runSchedule(Board& board)
{
    struct Slot
    {
        std::size_t big_cores;
        std::size_t little_cores;
        double f_big;
        double f_little;
    };
    static constexpr Slot kSlots[24] = {
        {4, 4, 1.2, 0.8}, {4, 4, 1.6, 1.0}, {3, 4, 0.8, 1.2},
        {4, 2, 1.4, 0.6}, {4, 4, 1.0, 1.4}, {2, 4, 1.8, 0.4},
        {4, 3, 1.3, 0.9}, {4, 4, 0.9, 1.1}, {4, 4, 2.0, 1.4},
        {4, 4, 2.0, 1.4}, {4, 4, 2.0, 1.4}, {4, 4, 2.0, 1.4},
        {4, 4, 2.0, 1.4}, {4, 4, 2.0, 1.4}, {4, 4, 2.0, 1.4},
        {4, 4, 2.0, 1.4}, {4, 4, 0.6, 0.4}, {4, 4, 0.7, 0.5},
        {3, 4, 0.5, 0.4}, {4, 4, 0.8, 0.6}, {4, 2, 0.6, 0.5},
        {4, 4, 0.9, 0.4}, {4, 4, 0.5, 0.6}, {4, 4, 0.7, 0.4},
    };
    for (std::size_t i = 0; i < 24; ++i) {
        HardwareInputs in;
        in.big_cores = kSlots[i].big_cores;
        in.little_cores = kSlots[i].little_cores;
        in.freq_big = kSlots[i].f_big;
        in.freq_little = kSlots[i].f_little;
        board.applyHardwareInputs(in);
        if (i == 4) {
            board.applyPlacementPolicy({6.0, 2.0, 1.0});
        }
        board.run(0.5);
    }
}

// Captured from the reference plant; regenerate only for a deliberate
// change of the plant's numerics.
const Pin kPins[] = {
    {"h264ref", 0x1.738acd64ba4acp+4, 0x1.aadc6749f389p+5,
     0x1.f3f5c99240997p+3, 0x1.10d4161b45af6p+5, 0x1.800000000017dp+2,
     0x1.4000000000005p+2},
    {"mcf", 0x1.ca2f2dc4e0657p+4, 0x1.d9132bc0f74d7p+4,
     0x1.34fd9324978ecp+3, 0x1.1d27b0cc05542p+5, 0x1.1ffffffffff49p+2,
     0x0p+0},
    {"omnetpp", 0x1.f7399fa72278ap+4, 0x1.3413ae278f82dp+5,
     0x1.4caec05ca6036p+3, 0x1.24508f14c8808p+5, 0x1.4000000000005p+2,
     0x0p+0},
    {"gamess", 0x1.7fded6e2a9c7ep+4, 0x1.c2eec800d8051p+5,
     0x1.002780367a7ddp+4, 0x1.12db4ab95fe93p+5, 0x1.800000000017dp+2,
     0x1.4000000000005p+2},
    {"gromacs", 0x1.738acd64ba4acp+4, 0x1.946503896d7adp+5,
     0x1.cb4b2283e7bp+3, 0x1.10d4161b45af6p+5, 0x1.800000000017dp+2,
     0x1.4000000000005p+2},
    {"dealII", 0x1.6736c3e6cad07p+4, 0x1.66bc531fb13fcp+5,
     0x1.bb3867afdb8a5p+3, 0x1.0ecce17d2b76ap+5, 0x1.0cccccccccbbep+1,
     0x1.4000000000005p+2},
    {"blackscholes", 0x1.208bf94b5676ep+4, 0x1.c4aa01e16079fp+4,
     0x1.b60f903b59c2bp-1, 0x1.0dd6788c0d6bep+5, 0x0p+0,
     0x0p+0},
    {"bodytrack", 0x1.356657b4690c4p+4, 0x1.84956bd9d973bp+4,
     0x1.a46ce0502e4a3p+0, 0x1.160829a159b5fp+5, 0x0p+0,
     0x0p+0},
    {"facesim", 0x1.14322954c6056p+4, 0x1.37796fdb09d46p+4,
     0x0p+0, 0x1.01cdf6a9d22bep+5, 0x0p+0,
     0x0p+0},
    {"fluidanimate", 0x1.3c17967364be1p+4, 0x1.9258387de7cep+4,
     0x1.a30225b953a28p+1, 0x1.0730d5bca8b37p+5, 0x1.d4fdf3b645a23p-1,
     0x1.134395810614cp+2},
    {"raytrace", 0x1.3004e99a6e1dbp+4, 0x1.fae322dc15379p+4,
     0x1.d73051945b6b5p+1, 0x1.05df01750119dp+5, 0x1.5810624dd2f1fp-1,
     0x1.0676c8b439434p+2},
    {"x264", 0x1.2f448e6de69d6p+4, 0x1.b66ac2d57c41cp+4,
     0x1.0df710fb7b6a2p+2, 0x1.032103c3ba6adp+5, 0x1.9df3b645a1b7dp+0,
     0x1.4000000000005p+2},
    {"canneal", 0x1.103c8e62210fdp+4, 0x1.19927d9f018adp+4,
     0x1.aaf334575b022p+0, 0x1.0c90a26ca63d7p+5, 0x0p+0,
     0x0p+0},
    {"streamcluster", 0x1.0d2f0141121e1p+4, 0x1.117ad5348bd37p+4,
     0x1.224d7588b50c2p+1, 0x1.0c3a13c996b3fp+5, 0x0p+0,
     0x0p+0},
    {"swaptions", 0x1.1219c750a9fa2p+4, 0x1.b55bf94361ffcp+4,
     0x1.54b70f8217e2fp+2, 0x1.079cb1086a73fp+5, 0x1.3a5e353f7ceddp-1,
     0x1.4000000000005p+2},
    {"vips", 0x1.2ae6118aabc4p+4, 0x1.80a1d3dae30e8p+4,
     0x1.9dcda2c4a5dep+1, 0x1.03f1db6c4c40ap+5, 0x1.578d4fdf3b64ap-1,
     0x1.19a9fbe76c7d8p+2},
    {"astar", 0x1.06df6c4c21c0ap+5, 0x1.575924c78386fp+5,
     0x1.6d6adc66e4e1ep+3, 0x1.27e4fe392a184p+5, 0x1.4000000000005p+2,
     0x0p+0},
    {"perlbench", 0x1.6736c3e6cad07p+4, 0x1.500d0ce9317d2p+5,
     0x1.945c60c46da01p+3, 0x1.0ecce17d2b76ap+5, 0x1.0cccccccccbbep+1,
     0x1.4000000000005p+2},
    {"milc", 0x1.e0b466b6016e2p+4, 0x1.0f08aa22853cp+5,
     0x1.49d19e329398dp+3, 0x1.20bc1ff066e9ep+5, 0x1.31db22d0e55b6p+2,
     0x0p+0},
    {"namd", 0x1.738acd64ba4acp+4, 0x1.ac62d79a661f4p+5,
     0x1.e6b1739ab5cbep+3, 0x1.10d4161b45af6p+5, 0x1.800000000017dp+2,
     0x1.4000000000005p+2},
    {"blmc", 0x1.c9d4b42f59c24p+4, 0x1.38ca53335f66cp+5,
     0x1.7558c5cdc7153p-1, 0x1.1f90d788f9278p+5, 0x1.1ffffffffff49p+2,
     0x0p+0},
    {"stga", 0x1.509f8d521613dp+4, 0x1.9afba08dff19p+5,
     0x1.26f28676e3b67p+0, 0x1.0ec3dc367945p+5, 0x1.9999999999873p+0,
     0x1.4000000000005p+2},
    {"blst", 0x1.154c25239f735p+4, 0x1.6a5b9aebc7f28p+4,
     0x0p+0, 0x1.ffd71f31a3ef1p+4, 0x0p+0,
     0x0p+0},
    {"mcga", 0x1.fe4d51ec6d102p+4, 0x1.69ebf0cf3f44dp+5,
     0x1.002780367a7ddp+4, 0x1.258626eb5f83ep+5, 0x1.60000000000c1p+2,
     0x0p+0},
    {"service", 0x1.6736c3e6cad07p+4, 0x1.500d0ce9317d2p+5,
     0x1.c3eec6812f607p+3, 0x1.0ecce17d2b76ap+5, 0x1.0cccccccccbbep+1,
     0x1.4000000000005p+2},
};

TEST(PlantPin, ScriptedScheduleIsBitExact)
{
    // Every catalog app, every mix, and the fleet's service app.
    const std::size_t boards = AppCatalog::evaluationApps().size() +
                               AppCatalog::trainingApps().size() +
                               AppCatalog::mixNames().size() + 1;
    ASSERT_EQ(std::size(kPins), boards);

    std::size_t tripped = 0;
    for (const Pin& pin : kPins) {
        SCOPED_TRACE(pin.name);
        Board b(BoardConfig::odroidXu3(), makeWorkload(pin.name), 7);
        runSchedule(b);
        EXPECT_EQ(b.energy(), pin.energy);
        EXPECT_EQ(b.perfCounters().instr_big, pin.instr_big);
        EXPECT_EQ(b.perfCounters().instr_little, pin.instr_little);
        EXPECT_EQ(b.trueTemperature(), pin.hotspot);
        EXPECT_EQ(b.constraintViolationTime(), pin.violation_time);
        EXPECT_EQ(b.emergencyTime(), pin.emergency_time);
        tripped += b.emergencyTime() > 0.0 ? 1 : 0;
    }
    // The max-settings stretch must exercise the TMU cap/release path.
    EXPECT_GT(tripped, 0u);
}

}  // namespace
}  // namespace yukta::platform
