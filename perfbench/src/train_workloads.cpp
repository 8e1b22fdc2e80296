#include "train_workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>

#include "data/partition.h"
#include "data/synthetic_cifar.h"
#include "fl/async_trainer.h"
#include "fl/trainer.h"
#include "nn/serialize.h"
#include "percentile.h"
#include "probes.h"
#include "sim/fleet.h"
#include "sim/simulation.h"
#include "spans.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace perfbench {

namespace fl = helcfl::fl;
namespace nn = helcfl::nn;
namespace sched = helcfl::sched;
namespace sim = helcfl::sim;
namespace util = helcfl::util;

namespace {

// The sub-stream ids sim::run_experiment forks off the master seed, so a
// workload's inputs for seed s are the inputs `helcfl_cli --seed=s` trains on.
constexpr std::uint64_t kDatasetStream = 1;
constexpr std::uint64_t kPartitionStream = 2;
constexpr std::uint64_t kFleetStream = 3;
constexpr std::uint64_t kModelStream = 4;
constexpr std::uint64_t kTrainingStream = 6;

constexpr std::size_t kClientThreads = 4;

double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

std::uint64_t fnv1a(const std::vector<float>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const float v : values) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      hash ^= (bits >> (8 * b)) & 0xFFU;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

/// Everything a training borrows, built from the seed.
struct TrainInputs {
  sim::ExperimentConfig config;
  helcfl::data::TrainTestSplit split;
  helcfl::data::Partition partition;
  std::vector<helcfl::mec::Device> devices;
  helcfl::mec::Channel channel;
  std::unique_ptr<nn::Sequential> model;
  std::vector<float> initial_weights;
  fl::TrainerOptions trainer_options;
  std::unique_ptr<sched::SelectionStrategy> strategy;
};

struct SetupTimes {
  double dataset_ms = 0.0;
  double partition_ms = 0.0;
  double fleet_ms = 0.0;
  double model_ms = 0.0;
  double trainer_ctor_ms = 0.0;
  double total_s = 0.0;
};

/// A trainer of either engine behind one interface.
class AnyTrainer {
 public:
  AnyTrainer(TrainInputs& in, nn::Sequential& model, sched::SelectionStrategy& strategy) {
    if (in.config.async.mode == fl::AsyncOptions::Mode::kAsync) {
      async_.emplace(model, in.split.train, in.split.test, in.partition, in.devices,
                     in.channel, strategy, in.trainer_options, in.config.async);
    } else {
      sync_.emplace(model, in.split.train, in.split.test, in.partition, in.devices,
                    in.channel, strategy, in.trainer_options);
    }
  }
  fl::TrainingHistory run() { return async_ ? async_->run() : sync_->run(); }

 private:
  std::optional<fl::FederatedTrainer> sync_;
  std::optional<fl::AsyncTrainer> async_;
};

std::unique_ptr<TrainInputs> build_inputs(const TrainSpec& spec, std::uint64_t seed,
                                          SetupTimes* times) {
  auto in = std::make_unique<TrainInputs>();
  in->config = train_config(spec, seed);
  in->config.validate();
  const util::Rng master(in->config.seed);
  SetupTimes t;
  const std::int64_t start = now_ns();

  util::Rng dataset_rng = master.fork(kDatasetStream);
  in->split = helcfl::data::make_synthetic_cifar(in->config.dataset, dataset_rng);
  const std::int64_t after_dataset = now_ns();

  util::Rng partition_rng = master.fork(kPartitionStream);
  in->partition = helcfl::data::shard_noniid_partition(
      in->split.train.labels(), in->config.n_users, in->config.shards_per_user,
      partition_rng);
  const std::int64_t after_partition = now_ns();

  std::vector<std::size_t> samples_per_user;
  for (const auto& slice : in->partition) samples_per_user.push_back(slice.size());
  util::Rng fleet_rng = master.fork(kFleetStream);
  in->devices = sim::make_fleet(in->config, samples_per_user, fleet_rng);
  in->channel = sim::make_channel(in->config);
  const std::int64_t after_fleet = now_ns();

  util::Rng model_rng = master.fork(kModelStream);
  in->model = nn::make_model(in->config.model, in->split.train.spec(),
                             in->config.dataset.num_classes, model_rng);
  in->initial_weights = nn::extract_parameters(*in->model);
  const std::int64_t after_model = now_ns();

  in->trainer_options = in->config.trainer;
  in->trainer_options.seed = master.fork(kTrainingStream).next_u64();
  const std::vector<sched::UserInfo> users = sched::build_user_info(
      in->devices, in->channel, in->trainer_options.model_size_bits);
  in->strategy = sim::make_strategy(in->config, {users});
  { AnyTrainer trainer(*in, *in->model, *in->strategy); }
  const std::int64_t end = now_ns();

  t.dataset_ms = ms_between(start, after_dataset);
  t.partition_ms = ms_between(after_dataset, after_partition);
  t.fleet_ms = ms_between(after_partition, after_fleet);
  t.model_ms = ms_between(after_fleet, after_model);
  t.trainer_ctor_ms = ms_between(after_model, end);
  t.total_s = static_cast<double>(end - start) / 1e9;
  if (times != nullptr) *times = t;
  return in;
}

/// One complete training and what the report needs from it.
struct Training {
  fl::TrainingHistory history;
  std::vector<float> weights;
  double run_s = 0.0;
  std::vector<double> round_ms;  ///< decide-to-decide host time
  std::uint64_t dispatched = 0;  ///< client updates dispatched
  std::uint64_t entered = 0;     ///< updates that entered the global model
  std::uint64_t completed = 0;   ///< local updates that finished computing
};

Training train_once(TrainInputs& in, nn::Sequential& model, StrategyProbe& strategy,
                    SpanRecorder* spans, std::atomic<std::uint64_t>* run_span) {
  nn::load_parameters(model, in.initial_weights);
  strategy.reset();
  AnyTrainer trainer(in, model, strategy);
  Training out;
  const std::uint64_t span_id = spans != nullptr ? spans->open_id() : 0;
  if (run_span != nullptr) run_span->store(span_id, std::memory_order_relaxed);
  const std::int64_t start = now_ns();
  out.history = trainer.run();
  const std::int64_t end = now_ns();
  if (spans != nullptr) spans->record_with_id(span_id, "fl.run", start, end);
  out.run_s = static_cast<double>(end - start) / 1e9;
  out.weights = nn::extract_parameters(model);

  const auto& starts = strategy.decide_starts();
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const std::int64_t next = i + 1 < starts.size() ? starts[i + 1] : end;
    out.round_ms.push_back(ms_between(starts[i], next));
  }
  for (const fl::RoundRecord& record : out.history.rounds()) {
    out.dispatched += record.selected.size();
    out.entered += record.survivors;
  }
  out.completed = out.dispatched - out.history.total_crashes();
  return out;
}

bool same_simulation(const fl::TrainingHistory& a, const fl::TrainingHistory& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const fl::RoundRecord& x = a.rounds()[i];
    const fl::RoundRecord& y = b.rounds()[i];
    if (x.selected != y.selected || x.aggregated != y.aggregated ||
        x.cum_delay_s != y.cum_delay_s || x.cum_energy_j != y.cum_energy_j ||
        x.test_accuracy != y.test_accuracy || x.train_loss != y.train_loss) {
      return false;
    }
  }
  return true;
}

void add_note(RunResult& result, const char* format, double a, double b = 0.0) {
  char line[256];
  std::snprintf(line, sizeof(line), format, a, b);
  result.notes.emplace_back(line);
}

}  // namespace

TrainSpec train_sync_cnn_spec() {
  TrainSpec spec;
  spec.name = "train_sync_cnn";
  spec.model = nn::ModelKind::kSmallCnn;
  spec.async = false;
  spec.rounds = 300;
  spec.faults = false;
  spec.target_accuracy = 0.25;
  spec.seeds_per_run = 6;
  return spec;
}

TrainSpec train_async_faults_spec() {
  TrainSpec spec;
  spec.name = "train_async_faults";
  spec.model = nn::ModelKind::kMlp;
  spec.async = true;
  spec.rounds = 1000;
  spec.faults = true;
  spec.target_accuracy = 0.25;
  spec.seeds_per_run = 4;
  return spec;
}

sim::ExperimentConfig train_config(const TrainSpec& spec, std::uint64_t seed) {
  sim::ExperimentConfig config = sim::paper_config();
  config.seed = seed;
  config.noniid = true;
  config.scheme = sim::Scheme::kHelcfl;
  config.model = spec.model;
  config.trainer.max_rounds = spec.rounds;
  config.trainer.num_threads = kClientThreads;
  config.trainer.eval_every = 5;
  if (spec.faults) {
    auto& faults = config.trainer.faults;
    faults.enabled = true;
    faults.straggler_rate = 0.10;
    faults.straggler_slowdown = 10.0;  // slowdown ~ U(1, 10)
    faults.crash_rate = 0.02;
    faults.upload_failure_rate = 0.05;
    config.trainer.max_upload_retries = 2;
  }
  if (spec.async) {
    config.async.mode = fl::AsyncOptions::Mode::kAsync;
    const std::size_t cohort = sched::selection_count(config.n_users, config.fraction);
    config.async.buffer_k = std::max<std::size_t>(1, (3 * cohort) / 4);
  }
  return config;
}

TrainFingerprint train_fingerprint(const TrainSpec& spec, std::uint64_t seed,
                                   std::size_t rounds, bool instrumented) {
  helcfl::tensor::set_kernel_threads(1);
  TrainSpec short_spec = spec;
  short_spec.rounds = rounds;
  auto in = build_inputs(short_spec, seed, nullptr);
  LayerTotals totals;
  SpanRecorder spans;
  std::atomic<std::uint64_t> run_span{0};
  std::unique_ptr<nn::Sequential> wrapped;
  nn::Sequential* model = in->model.get();
  if (instrumented) {
    wrapped = instrument_model(*in->model, totals, &spans, &run_span);
    model = wrapped.get();
  }
  StrategyProbe probe(*in->strategy, instrumented ? &spans : nullptr, &run_span);
  fl::TrainingHistory history;
  if (instrumented) {
    history = train_once(*in, *model, probe, &spans, &run_span).history;
  } else {
    // The plain path: the library's own model and strategy, no wrapper.
    nn::load_parameters(*model, in->initial_weights);
    in->strategy->reset();
    AnyTrainer trainer(*in, *model, *in->strategy);
    history = trainer.run();
  }
  TrainFingerprint fp;
  fp.weights = nn::extract_parameters(*model);
  fp.total_delay_s = history.total_delay_s();
  fp.total_energy_j = history.total_energy_j();
  fp.final_accuracy = history.empty() ? 0.0 : history.back().test_accuracy;
  return fp;
}

namespace {
std::uint64_t sub_seed(std::uint64_t seed, std::size_t k) { return seed * 100 + k; }
}  // namespace

RunResult run_train_workload(const TrainSpec& spec, const RunOptions& options) {
  helcfl::tensor::set_kernel_threads(1);
  RunResult result;

  // --- set-up: one input set per sub-seed, each timed ---
  std::vector<SetupTimes> setups(spec.seeds_per_run);
  std::vector<std::unique_ptr<TrainInputs>> inputs;
  for (std::size_t k = 0; k < spec.seeds_per_run; ++k) {
    inputs.push_back(build_inputs(spec, sub_seed(options.seed, k), &setups[k]));
  }
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& t : setups) values.push_back(t.*field);
    return median(values);
  };

  // --- untraced passes over every sub-seed: the end-to-end numbers.  A
  // traced run needs only the first sub-seed's untraced training, as the
  // reference the traced one must reproduce. ---
  // Warm-up: a short training fills the allocator, thread stacks and
  // caches, so the first timed training does not pay for them.
  {
    TrainInputs& in = *inputs.front();
    const fl::TrainerOptions full = in.trainer_options;
    in.trainer_options.max_rounds = std::max<std::size_t>(1, spec.rounds / 10);
    StrategyProbe clock(*in.strategy, nullptr, nullptr);
    train_once(in, *in.model, clock, nullptr, nullptr);
    in.trainer_options = full;
  }

  const std::size_t per_pass = options.trace ? 1 : spec.seeds_per_run;
  std::vector<std::vector<Training>> passes;
  std::vector<double> pass_throughput;
  std::vector<double> pass_p50;
  std::vector<double> pass_tail;
  LatencySummary summary;
  const std::int64_t loop_start = now_ns();
  double pass_s = 0.0;
  do {
    // Each statistic is the median over the pass's inputs: a few inputs
    // cost far more per update than the rest (see README.md), and the
    // median keeps one such input from moving the whole run.
    const std::int64_t pass_start = now_ns();
    std::vector<Training> pass;
    std::vector<double> throughput;
    std::vector<double> p50;
    std::vector<double> tail;
    for (std::size_t k = 0; k < per_pass; ++k) {
      StrategyProbe clock(*inputs[k]->strategy, nullptr, nullptr);
      pass.push_back(train_once(*inputs[k], *inputs[k]->model, clock, nullptr, nullptr));
      throughput.push_back(static_cast<double>(pass.back().completed) / pass.back().run_s);
      summary = summarize(pass.back().round_ms);
      p50.push_back(summary.p50);
      tail.push_back(summary.tail);
    }
    pass_throughput.push_back(median(throughput));
    pass_p50.push_back(median(p50));
    pass_tail.push_back(median(tail));
    passes.push_back(std::move(pass));
    pass_s = static_cast<double>(now_ns() - pass_start) / 1e9;
  } while (!options.trace &&
           static_cast<double>(now_ns() - loop_start) / 1e9 + pass_s <= options.seconds);

  // Every pass must reproduce the first bit for bit.
  const std::vector<Training>& first = passes.front();
  for (const std::vector<Training>& pass : passes) {
    for (std::size_t k = 0; k < pass.size(); ++k) {
      result.check(fnv1a(pass[k].weights) == fnv1a(first[k].weights) &&
                       same_simulation(pass[k].history, first[k].history),
                   "repeated untraced trainings of sub-seed " + std::to_string(k) +
                       " disagree");
    }
  }
  std::uint64_t dispatched = 0;
  std::uint64_t entered = 0;
  double sim_delay = 0.0;
  double sim_energy = 0.0;
  double sim_rounds = 0.0;
  for (std::size_t k = 0; k < first.size(); ++k) {
    const fl::TrainingHistory& history = first[k].history;
    const std::string label = " (seed " + std::to_string(sub_seed(options.seed, k)) + ")";
    result.check(std::all_of(first[k].weights.begin(), first[k].weights.end(),
                             [](float w) { return std::isfinite(w); }),
                 "final weights contain a non-finite value" + label);
    const auto time_to_target = history.time_to_accuracy(spec.target_accuracy);
    const auto energy_to_target = history.energy_to_accuracy(spec.target_accuracy);
    result.check(time_to_target.has_value(), "the target accuracy was never reached" + label);
    dispatched += first[k].dispatched;
    entered += first[k].entered;
    sim_delay += history.total_delay_s();
    sim_energy += history.total_energy_j();
    sim_rounds += static_cast<double>(history.size());
    char line[256];
    std::snprintf(line, sizeof(line),
                  "seed %llu: train.sim_time_to_target_s = %.9g s, "
                  "train.energy_to_target_j = %.9g J, train.final_accuracy = %.4g, "
                  "run_s = %.3f, client_updates_per_s = %.6g",
                  static_cast<unsigned long long>(sub_seed(options.seed, k)),
                  time_to_target.value_or(0.0), energy_to_target.value_or(0.0),
                  history.empty() ? 0.0 : history.back().test_accuracy, first[k].run_s,
                  static_cast<double>(first[k].completed) / first[k].run_s);
    result.notes.emplace_back(line);
  }
  result.attempted = dispatched;
  result.failed = 0;  // injected faults are workload semantics, not errors

  auto& e2e = result.end_to_end;
  e2e["setup_s"] = {median_of(&SetupTimes::total_s), "s"};
  e2e["throughput_per_s"] = {median(pass_throughput), "1/s"};
  e2e["latency_ms_p50"] = {median(pass_p50), "ms"};
  // The tail is reported but not gated: its run-to-run spread on a shared
  // 4-vCPU host exceeds any allowed bound (README.md, "Steadiness").
  result.per_layer["e2e.latency_ms_tail"] = {median(pass_tail), "ms"};
  e2e["ops_ok_share"] = {static_cast<double>(entered) / static_cast<double>(dispatched),
                         "share"};
  e2e["sim_round_s"] = {sim_delay / sim_rounds, "s"};
  e2e["sim_round_energy_j"] = {sim_energy / sim_rounds, "J"};
  add_note(result, "train.target_accuracy = %.3g share", spec.target_accuracy);
  add_note(result, "train.client_updates_per_s = %.6g 1/s (passes: %g)",
           median(pass_throughput), static_cast<double>(passes.size()));
  result.notes.push_back("train.round_ms_tail = " + std::to_string(median(pass_tail)) +
                         " ms (" + tail_label(summary) +
                         " decision intervals of the last training)");
  add_note(result, "ops_failed_share = %.6g share",
           1.0 - static_cast<double>(entered) / static_cast<double>(dispatched));

  if (!options.trace) {
    e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    return result;
  }

  // --- one traced training of the first sub-seed: the per-layer numbers ---
  TrainInputs& in = *inputs.front();
  const Training& reference = first.front();
  LayerTotals totals;
  SpanRecorder spans;
  std::atomic<std::uint64_t> run_span{0};
  const std::unique_ptr<nn::Sequential> traced_model =
      instrument_model(*in.model, totals, &spans, &run_span);
  StrategyProbe traced_strategy(*in.strategy, &spans, &run_span);
  const Training traced = train_once(in, *traced_model, traced_strategy, &spans, &run_span);
  result.check(fnv1a(traced.weights) == fnv1a(reference.weights),
               "the traced training's final weights differ from the untraced one's");
  result.check(same_simulation(traced.history, reference.history),
               "the traced training's simulated trace differs from the untraced one's");
  std::vector<double> decide_us;
  for (const std::int64_t ns : traced_strategy.decide_ns()) {
    decide_us.push_back(static_cast<double>(ns) / 1e3);
  }

  const double run_ms = traced.run_s * 1e3;
  const double busy_ms = static_cast<double>(totals.busy_ns()) / 1e6;
  auto& layer = result.per_layer;
  const char* const kinds[] = {"conv2d", "dense"};
  for (std::size_t k = 0; k < 2; ++k) {
    const LayerTotals::PerKind& t = totals.kind[k];
    const double fwd = static_cast<double>(t.fwd_ns.load()) / 1e6;
    const double bwd = static_cast<double>(t.bwd_ns.load()) / 1e6;
    const std::string prefix = std::string("nn.") + kinds[k];
    layer[prefix + ".fwd_ms"] = {fwd, "ms"};
    layer[prefix + ".bwd_ms"] = {bwd, "ms"};
    layer[prefix + ".gflops"] = {
        fwd + bwd > 0.0 ? t.flops.load() / ((fwd + bwd) * 1e6) : 0.0, "GFLOP/s"};
  }
  const LayerTotals::PerKind& other = totals.kind[2];
  layer["nn.other_ms"] = {
      static_cast<double>(other.fwd_ns.load() + other.bwd_ns.load()) / 1e6, "ms"};
  std::int64_t eval_ns = 0;
  std::uint64_t calls = 0;
  for (const LayerTotals::PerKind& t : totals.kind) {
    eval_ns += t.eval_ns.load();
    calls += t.calls.load();
  }
  layer["nn.eval_fwd_ms"] = {static_cast<double>(eval_ns) / 1e6, "ms"};
  layer["nn.layer_calls"] = {static_cast<double>(calls), "count"};
  layer["fl.run_ms"] = {run_ms, "ms"};
  layer["fl.client_parallelism"] = {busy_ms / run_ms, "ratio"};
  layer["fl.worker_idle_share"] = {
      1.0 - busy_ms / (static_cast<double>(kClientThreads) * run_ms), "share"};
  double decide_total_us = 0.0;
  for (const double us : decide_us) decide_total_us += us;
  std::sort(decide_us.begin(), decide_us.end());
  layer["sched.decide_calls"] = {static_cast<double>(decide_us.size()), "count"};
  layer["sched.decide_ms"] = {decide_total_us / 1e3, "ms"};
  layer["sched.decide_us_p99"] = {percentile_sorted(decide_us, 99.0), "us"};
  layer["setup.dataset_ms"] = {median_of(&SetupTimes::dataset_ms), "ms"};
  layer["setup.partition_ms"] = {median_of(&SetupTimes::partition_ms), "ms"};
  layer["setup.fleet_ms"] = {median_of(&SetupTimes::fleet_ms), "ms"};
  layer["setup.model_ms"] = {median_of(&SetupTimes::model_ms), "ms"};
  layer["setup.trainer_ctor_ms"] = {median_of(&SetupTimes::trainer_ctor_ms), "ms"};
  layer["trace.throughput_ratio"] = {
      (static_cast<double>(traced.completed) / traced.run_s) /
          (static_cast<double>(reference.completed) / reference.run_s),
      "ratio"};
  layer["trace.spans"] = {static_cast<double>(spans.size()), "count"};
  result.check(spans.dropped() == 0, "the span buffer overflowed");

  if (!options.trace_dir.empty()) {
    const std::string path = options.trace_dir + "/" + spec.name + "-seed" +
                             std::to_string(sub_seed(options.seed, 0)) + ".spans.csv";
    result.check(spans.write_csv(path), "could not write " + path);
    result.notes.push_back("spans written to " + path);
  }
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  return result;
}

}  // namespace perfbench
