/**
 * @file
 * Microbenchmark: wall cost of one simulated-plant substep
 * (Board::stepOnce, 1 ms of simulated time), the loop that dominates
 * every board-epoch (500 substeps per 500 ms control period).
 *
 * Cases span the thread counts and phase shapes the fleet and the
 * paper sweeps run: the fleet's 8-thread service app, a PARSEC app
 * in its 8-thread parallel phase (blackscholes), one that churns
 * thread counts between phases (x264), an 8-copy SPEC app (mcf) and
 * a two-instance heterogeneous mix (blmc). Each case warms a board
 * up for kWarmupSeconds at the default (max) settings, so the timed
 * window starts past the serial phases with the TMU in play; every
 * repetition then times kWindowSeconds of substeps on a fresh copy of
 * the warmed board.
 *
 * Timing is best-of-R: the minimum over R repetitions, so a scheduler
 * hiccup in one repetition cannot inflate the published number.
 *
 * Correctness-gated, so CI can run this as a smoke stage without
 * gating on timing: every repetition must end on exactly the energy
 * pinned below (hex-float literals captured from the reference
 * plant). A faster plant that changes a single floating-point result
 * fails here.
 *
 * Usage: bench_micro_plant [--quick] [--out PATH]
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "obs/stopwatch.h"
#include "platform/apps.h"
#include "platform/board.h"

namespace {

using yukta::platform::AppCatalog;
using yukta::platform::Board;
using yukta::platform::BoardConfig;
using yukta::platform::Workload;

constexpr double kWarmupSeconds = 10.0;
constexpr double kWindowSeconds = 5.0;

struct PlantCase
{
    const char* label;
    double pinned_energy;  ///< J after warm-up + window.
};

// Captured from the reference plant; a deliberate change of the
// plant's numerics re-pins these.
constexpr PlantCase kCases[] = {
    {"service", 0x1.816263cf63b9ep+4},
    {"blackscholes", 0x1.de64158f59347p+4},
    {"x264", 0x1.d4c3ca7191a01p+4},
    {"mcf", 0x1.43c52bd021dccp+4},
    {"blmc", 0x1.58003854acfa9p+4},
};

Workload
makeWorkload(const std::string& label)
{
    if (label == "service") {
        return Workload(AppCatalog::makeServiceApp(8));
    }
    if (label == "blmc") {
        return AppCatalog::getMix(label);
    }
    return Workload(AppCatalog::get(label));
}

struct CaseResult
{
    const char* label = "";
    std::size_t threads = 0;  ///< Runnable threads at window start.
    double ns_per_substep = 0.0;
    double energy = 0.0;
    bool pinned = true;  ///< Every repetition hit the pinned energy.
};

CaseResult
runCase(const PlantCase& pc, int repeats)
{
    Board warmed(BoardConfig::odroidXu3(), makeWorkload(pc.label), 1);
    warmed.run(kWarmupSeconds);

    CaseResult out;
    out.label = pc.label;
    out.threads = warmed.threadsRunning();
    const double substeps = kWindowSeconds / warmed.config().time_step;
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < repeats; ++r) {
        Board board = warmed;
        yukta::obs::Stopwatch watch;
        board.run(kWindowSeconds);
        best = std::min(best, watch.seconds());
        out.energy = board.energy();
        // Exact by design: the plant is deterministic and the pin is
        // its bit pattern.
        if (board.energy() != pc.pinned_energy) {
            out.pinned = false;
        }
    }
    out.ns_per_substep = best / substeps * 1e9;
    return out;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    std::string out_path = "BENCH_micro_plant.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::cerr << "usage: bench_micro_plant [--quick] [--out PATH]\n";
            return 2;
        }
    }

    const int repeats = quick ? 3 : 21;
    std::vector<CaseResult> results;
    bool ok = true;
    for (const PlantCase& pc : kCases) {
        CaseResult r = runCase(pc, repeats);
        std::printf("%-12s threads=%zu  %8.1f ns/substep  energy %a J%s\n",
                    r.label, r.threads, r.ns_per_substep, r.energy,
                    r.pinned ? "" : "  (PIN MISMATCH)");
        if (!r.pinned) {
            std::cerr << "FAIL: " << r.label
                      << " energy differs from the pinned plant result\n";
            ok = false;
        }
        results.push_back(r);
    }

    std::ofstream json(out_path);
    json << "{\n  \"bench\": \"micro_plant\",\n"
         << "  \"warmup_s\": " << kWarmupSeconds
         << ",\n  \"window_s\": " << kWindowSeconds
         << ",\n  \"repeats\": " << repeats
         << ",\n  \"timing\": \"best-of-repeats\",\n"
         << "  \"cases\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const CaseResult& r = results[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "    {\"case\": \"%s\", \"threads\": %zu, "
                      "\"ns_per_substep\": %.1f, \"energy_j\": %.17g, "
                      "\"energy_pinned\": %s}%s\n",
                      r.label, r.threads, r.ns_per_substep, r.energy,
                      r.pinned ? "true" : "false",
                      i + 1 < results.size() ? "," : "");
        json << buf;
    }
    json << "  ]\n}\n";
    std::cout << "wrote " << out_path << "\n";
    return ok ? 0 : 1;
}
