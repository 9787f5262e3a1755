#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where traced runs write their span JSONL (inside the checkout).
  std::string out_dir = ".bench_build/perfbench-out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs one workload end to end: seeded set-up, warm-up, the timed phase
/// (and with --trace 1 a plain and a traced phase), ground-truth checks.
/// Prints human-readable detail lines on stdout; the caller prints the
/// final JSON line from the returned Result.
Result run_workload(const Options& options);

}  // namespace perfbench
