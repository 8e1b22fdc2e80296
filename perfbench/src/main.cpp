// perfbench: one run of one end-to-end workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//
// Prints one "name = value unit" line per metric (and the workload's own
// notes), then, as its last line, a JSON object with the verdict, the
// operation counts and the metrics: the end-to-end metrics with --trace 0,
// the per-layer metrics of the traced run with --trace 1.  Exits 1 when a
// correctness check failed, 2 on bad usage.  perfbench/run.py builds this
// binary and is the command to use.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "report.h"
#include "svc_workload.h"
#include "train_workloads.h"

namespace {

using perfbench::Metric;
using perfbench::RunOptions;
using perfbench::RunResult;

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out;
}

void print_metrics(const std::map<std::string, Metric>& metrics) {
  for (const auto& [name, metric] : metrics) {
    std::printf("%s = %.9g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
}

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "train_sync_cnn|train_async_faults|svc_fleet_tcp --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("every flag takes one value");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  RunResult result;
  try {
    if (workload == "train_sync_cnn") {
      result = perfbench::run_train_workload(perfbench::train_sync_cnn_spec(), options);
    } else if (workload == "train_async_faults") {
      result = perfbench::run_train_workload(perfbench::train_async_faults_spec(), options);
    } else if (workload == "svc_fleet_tcp") {
      result = perfbench::run_svc_workload(perfbench::SvcSpec{}, options);
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
  } catch (const std::exception& error) {
    result.errors.push_back(std::string("uncaught exception: ") + error.what());
  }

  for (const std::string& line : result.notes) std::printf("%s\n", line.c_str());
  print_metrics(result.end_to_end);
  print_metrics(result.per_layer);
  for (const std::string& error : result.errors) {
    std::printf("CORRECTNESS FAILURE: %s\n", error.c_str());
  }

  auto& reported = options.trace ? result.per_layer : result.end_to_end;
  for (auto& [name, metric] : reported) {
    if (!std::isfinite(metric.value)) {
      result.errors.push_back("metric " + name + " is not finite");
      metric.value = 0.0;
    }
  }
  std::string json = "{\"correct\": ";
  json += result.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : reported) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    json += (first ? "\"" : ", \"") + json_escape(name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + json_escape(metric.unit) + "\"}";
    first = false;
  }
  json += "}, \"errors\": [";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + json_escape(result.errors[i]) + "\"";
  }
  json += "]}";
  std::printf("%s\n", json.c_str());
  return result.errors.empty() ? 0 : 1;
}
