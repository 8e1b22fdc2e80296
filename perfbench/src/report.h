// What a workload hands back to main(): named metrics, the operation
// counts, and the correctness verdict with its reasons.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its spans
};

struct RunResult {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::uint64_t attempted = 0;  ///< operations the timed run issued
  std::uint64_t failed = 0;     ///< operations that never completed
  std::vector<std::string> errors;  ///< correctness failures (empty = correct)
  std::vector<std::string> notes;   ///< human-readable lines for stdout

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// Peak resident set size of this process in MiB (getrusage).
double peak_rss_mb();

}  // namespace perfbench
