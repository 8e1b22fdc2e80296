// Traced-run instruments that sit *outside* the library: a forwarding
// nn::Layer wrapper and a forwarding sched::SelectionStrategy decorator.
// Both delegate every call unchanged, so a run with them is bitwise the run
// without them (selftest.cpp checks this); they only add clock reads.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "nn/sequential.h"
#include "sched/scheduler.h"
#include "spans.h"

namespace perfbench {

enum class LayerKind : std::size_t { kConv2d = 0, kDense = 1, kOther = 2 };
inline constexpr std::size_t kLayerKinds = 3;

LayerKind classify(const helcfl::nn::Layer& layer);

/// Totals per layer kind, summed over every replica and worker thread.
struct LayerTotals {
  struct PerKind {
    std::atomic<std::int64_t> fwd_ns{0};   ///< training-mode forward
    std::atomic<std::int64_t> bwd_ns{0};
    std::atomic<std::int64_t> eval_ns{0};  ///< forward(training = false)
    std::atomic<double> flops{0.0};        ///< training fwd + bwd FLOPs
    std::atomic<std::uint64_t> calls{0};
  };
  std::array<PerKind, kLayerKinds> kind;

  std::int64_t busy_ns() const;  ///< all layer time, every kind and mode
};

/// Forwards every nn::Layer call to `inner`, timing forward/backward into
/// `totals` and (when `spans` is set) one span per call under `*parent`.
/// clone() wraps the inner clone, so the trainer's per-worker replicas stay
/// instrumented.
class LayerProbe : public helcfl::nn::Layer {
 public:
  LayerProbe(std::unique_ptr<helcfl::nn::Layer> inner, LayerTotals& totals,
             SpanRecorder* spans, const std::atomic<std::uint64_t>* parent);

  helcfl::tensor::Tensor forward(const helcfl::tensor::Tensor& input,
                                 bool training) override;
  helcfl::tensor::Tensor backward(const helcfl::tensor::Tensor& grad_output) override;
  std::vector<helcfl::nn::ParamRef> params() override { return inner_->params(); }
  std::unique_ptr<helcfl::nn::Layer> clone() const override;
  std::vector<std::span<float>> state_buffers() override {
    return inner_->state_buffers();
  }
  void mark_weights_dirty() override { inner_->mark_weights_dirty(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<helcfl::nn::Layer> inner_;
  LayerKind kind_;
  double weight_elems_ = 0.0;  ///< first parameter tensor (the weights)
  double fwd_flops_ = 0.0;     ///< of the last training forward
  LayerTotals& totals_;
  SpanRecorder* spans_;
  const std::atomic<std::uint64_t>* parent_;
};

/// A copy of `model` whose every layer is a LayerProbe around a clone of
/// the original layer.
std::unique_ptr<helcfl::nn::Sequential> instrument_model(
    helcfl::nn::Sequential& model, LayerTotals& totals, SpanRecorder* spans,
    const std::atomic<std::uint64_t>* parent);

/// Forwards every SelectionStrategy call to `inner`.  Always records when
/// each decide() began (the round clock the end-to-end latency uses); with
/// `spans` set it also records one span and one duration per decide().
class StrategyProbe : public helcfl::sched::SelectionStrategy {
 public:
  StrategyProbe(helcfl::sched::SelectionStrategy& inner, SpanRecorder* spans,
                const std::atomic<std::uint64_t>* parent);

  helcfl::sched::Decision decide(const helcfl::sched::FleetView& fleet,
                                 std::size_t round) override;
  void observe(std::size_t round, const helcfl::sched::Decision& decision,
               std::span<const double> client_losses) override {
    inner_.observe(round, decision, client_losses);
  }
  void report_completion(std::size_t round, const helcfl::sched::Decision& decision,
                         std::span<const std::uint8_t> completed) override {
    inner_.report_completion(round, decision, completed);
  }
  void reset() override;
  std::string name() const override { return inner_.name(); }

  /// steady-clock ns at the entry of each decide() since the last reset().
  const std::vector<std::int64_t>& decide_starts() const { return starts_; }
  /// Duration of each decide() in ns (recorded only when tracing).
  const std::vector<std::int64_t>& decide_ns() const { return durations_; }

 protected:
  void do_save_state(helcfl::util::ByteWriter& out) const override {
    inner_.save_state(out);
  }
  void do_load_state(helcfl::util::ByteReader& in) override { inner_.load_state(in); }

 private:
  helcfl::sched::SelectionStrategy& inner_;
  SpanRecorder* spans_;
  const std::atomic<std::uint64_t>* parent_;
  std::vector<std::int64_t> starts_;
  std::vector<std::int64_t> durations_;
};

}  // namespace perfbench
