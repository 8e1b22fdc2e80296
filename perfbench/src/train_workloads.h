// The two training workloads (README.md, "Workloads"):
//
//   train_sync_cnn      paper fleet, small_cnn, sync FederatedTrainer,
//                       300 rounds, 4 client threads, no faults
//   train_async_faults  paper fleet, mlp, AsyncTrainer (buffer_k = 3/4
//                       cohort), 10 % stragglers U(1,10), crashes, upload
//                       failures with retries, 1000 aggregation steps
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/models.h"
#include "report.h"
#include "sim/config.h"

namespace perfbench {

struct TrainSpec {
  std::string name;
  helcfl::nn::ModelKind model = helcfl::nn::ModelKind::kMlp;
  bool async = false;
  std::size_t rounds = 0;          ///< rounds (sync) or server steps (async)
  bool faults = false;
  double target_accuracy = 0.0;    ///< reached by every seed before the end
  /// Trainings per pass, one per sub-seed `seed * 100 + k`: the per-seed
  /// cost differs (some inputs drive the MLP into denormal floats), so a
  /// run averages several inputs instead of repeating one.
  std::size_t seeds_per_run = 1;
};

TrainSpec train_sync_cnn_spec();
TrainSpec train_async_faults_spec();

/// The experiment configuration `spec` trains under with master seed `seed`.
helcfl::sim::ExperimentConfig train_config(const TrainSpec& spec, std::uint64_t seed);

/// Runs the workload.  Untraced: passes over every sub-seed while a further
/// pass fits in `options.seconds` (end-to-end metrics).  Traced: the first
/// sub-seed once untraced and once instrumented (per-layer metrics), which
/// must produce identical results.
RunResult run_train_workload(const TrainSpec& spec, const RunOptions& options);

/// Final weights and simulated metrics of one short training of `spec`
/// (`rounds` overrides its length), with or without the layer wrapper and
/// strategy decorator — the transparency self-test compares the two.
struct TrainFingerprint {
  std::vector<float> weights;
  double total_delay_s = 0.0;
  double total_energy_j = 0.0;
  double final_accuracy = 0.0;
};
TrainFingerprint train_fingerprint(const TrainSpec& spec, std::uint64_t seed,
                                   std::size_t rounds, bool instrumented);

}  // namespace perfbench
