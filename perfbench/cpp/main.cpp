// End-to-end benchmark of LF-Backscatter: seeded inputs from the simulator,
// four workloads through the public entry points, every delivered frame
// checked against ground truth. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage: lfbs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                       [--out DIR]
// Normally started through perfbench/run.py, which builds it first.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: lfbs_perfbench --workload "
               "epoch16|stream3|relay_fanout|shard2 --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n");
  return 2;
}

/// A finite number with all its digits; JSON has no NaN or infinity.
std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        o.trace = value == "1";
      } else if (arg == "--out") {
        o.out_dir = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (o.workload.empty() || !(o.seconds > 0.0)) return usage();

  perfbench::Result r;
  try {
    std::filesystem::create_directories(o.out_dir);
    r = perfbench::run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lfbs_perfbench: %s\n", e.what());
    return 1;
  }

  std::string json = std::string("{\"correct\": ") +
                     (r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
