/**
 * @file
 * perfbench: runs one benchmark workload in this process and prints
 * human-readable report lines, then one JSON object on the last line:
 *
 *   {"correct": bool, "attempted": n, "failed": n,
 *    "checks": {"name": bool, ...},
 *    "metrics": {"name": {"value": v, "unit": "u"}, ...}}
 *
 * perfbench/run.py builds this binary, runs it, and reduces the object
 * to the metrics BENCHMARK.json names.
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  --work-dir DIR --fleet-cache DIR [--smoke]
 */

#include <cstdio>
#include <exception>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>

#include "bench.h"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR --fleet-cache DIR [--smoke]\n");
    return 2;
}

std::string
toJson(const perfbench::Result& r)
{
    // A check repeated over repetitions passes only if it always did.
    std::map<std::string, bool> checks;
    for (const auto& [name, ok] : r.checks) {
        auto it = checks.emplace(name, true).first;
        it->second = it->second && ok;
    }
    bool correct = r.failed == 0 && r.attempted > 0;
    std::ostringstream os;
    os << std::setprecision(17);
    os << "{\"checks\":{";
    const char* sep = "";
    for (const auto& [name, ok] : checks) {
        correct = correct && ok;
        os << sep << "\"" << name << "\":" << (ok ? "true" : "false");
        sep = ",";
    }
    os << "},\"metrics\":{";
    sep = "";
    for (const perfbench::Metric& m : r.metrics) {
        os << sep << "\"" << m.name << "\":{\"value\":" << m.value
           << ",\"unit\":\"" << m.unit << "\"}";
        sep = ",";
    }
    os << "},\"correct\":" << (correct ? "true" : "false")
       << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
       << "}";
    return os.str();
}

}  // namespace

int
main(int argc, char** argv)
{
    perfbench::Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--smoke") {
            o.smoke = true;
            continue;
        }
        if (i + 1 >= argc) {
            return usage();
        }
        const std::string v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = static_cast<std::uint32_t>(std::stoul(v));
        } else if (a == "--seconds") {
            o.seconds = std::stod(v);
        } else if (a == "--trace") {
            o.trace = v == "1";
        } else if (a == "--work-dir") {
            o.work_dir = v;
        } else if (a == "--fleet-cache") {
            o.fleet_cache = v;
        } else {
            return usage();
        }
    }
    if (o.workload.empty() || o.work_dir.empty() || o.fleet_cache.empty()) {
        return usage();
    }
    try {
        const perfbench::Result r = perfbench::runWorkload(o);
        for (const std::string& line : r.report) {
            std::cout << line << "\n";
        }
        std::cout << toJson(r) << std::endl;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
