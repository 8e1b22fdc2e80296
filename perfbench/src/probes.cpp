#include "probes.h"

#include "nn/conv2d.h"
#include "nn/dense.h"

namespace perfbench {

namespace nn = helcfl::nn;
namespace sched = helcfl::sched;
using helcfl::tensor::Tensor;

LayerKind classify(const nn::Layer& layer) {
  if (dynamic_cast<const nn::Conv2D*>(&layer) != nullptr) return LayerKind::kConv2d;
  if (dynamic_cast<const nn::Dense*>(&layer) != nullptr) return LayerKind::kDense;
  return LayerKind::kOther;
}

std::int64_t LayerTotals::busy_ns() const {
  std::int64_t total = 0;
  for (const PerKind& k : kind) {
    total += k.fwd_ns.load() + k.bwd_ns.load() + k.eval_ns.load();
  }
  return total;
}

namespace {

const char* span_name(LayerKind kind, bool backward, bool training) {
  if (!training) return "nn.eval_fwd";
  switch (kind) {
    case LayerKind::kConv2d: return backward ? "nn.conv2d.bwd" : "nn.conv2d.fwd";
    case LayerKind::kDense: return backward ? "nn.dense.bwd" : "nn.dense.fwd";
    case LayerKind::kOther: break;
  }
  return backward ? "nn.other.bwd" : "nn.other.fwd";
}

void add_flops(std::atomic<double>& total, double flops) {
  double seen = total.load(std::memory_order_relaxed);
  while (!total.compare_exchange_weak(seen, seen + flops,
                                      std::memory_order_relaxed)) {
  }
}

}  // namespace

LayerProbe::LayerProbe(std::unique_ptr<nn::Layer> inner, LayerTotals& totals,
                       SpanRecorder* spans, const std::atomic<std::uint64_t>* parent)
    : inner_(std::move(inner)),
      kind_(classify(*inner_)),
      totals_(totals),
      spans_(spans),
      parent_(parent) {
  if (kind_ != LayerKind::kOther) {
    const auto params = inner_->params();
    if (!params.empty()) weight_elems_ = static_cast<double>(params[0].value.size());
  }
}

Tensor LayerProbe::forward(const Tensor& input, bool training) {
  const std::int64_t start = now_ns();
  Tensor output = inner_->forward(input, training);
  const std::int64_t end = now_ns();
  LayerTotals::PerKind& k = totals_.kind[static_cast<std::size_t>(kind_)];
  k.calls.fetch_add(1, std::memory_order_relaxed);
  if (training) {
    k.fwd_ns.fetch_add(end - start, std::memory_order_relaxed);
    if (kind_ != LayerKind::kOther && output.shape().rank() >= 2) {
      // Dense: 2·in·out per row.  Conv2D: 2·(out_c·in_c·k²) per output
      // pixel.  Both are 2·|W|·(outputs / output features).
      const double outputs = static_cast<double>(output.size());
      const double features = static_cast<double>(output.shape().dim(1));
      fwd_flops_ = 2.0 * weight_elems_ * outputs / features;
      add_flops(k.flops, fwd_flops_);
    }
  } else {
    k.eval_ns.fetch_add(end - start, std::memory_order_relaxed);
  }
  if (spans_ != nullptr) {
    spans_->record(span_name(kind_, false, training), start, end,
                   parent_->load(std::memory_order_relaxed));
  }
  return output;
}

Tensor LayerProbe::backward(const Tensor& grad_output) {
  const std::int64_t start = now_ns();
  Tensor grad_input = inner_->backward(grad_output);
  const std::int64_t end = now_ns();
  LayerTotals::PerKind& k = totals_.kind[static_cast<std::size_t>(kind_)];
  k.calls.fetch_add(1, std::memory_order_relaxed);
  k.bwd_ns.fetch_add(end - start, std::memory_order_relaxed);
  // Weight gradient and input gradient: twice the forward FLOPs.
  if (kind_ != LayerKind::kOther) add_flops(k.flops, 2.0 * fwd_flops_);
  if (spans_ != nullptr) {
    spans_->record(span_name(kind_, true, true), start, end,
                   parent_->load(std::memory_order_relaxed));
  }
  return grad_input;
}

std::unique_ptr<nn::Layer> LayerProbe::clone() const {
  return std::make_unique<LayerProbe>(inner_->clone(), totals_, spans_, parent_);
}

std::unique_ptr<nn::Sequential> instrument_model(
    nn::Sequential& model, LayerTotals& totals, SpanRecorder* spans,
    const std::atomic<std::uint64_t>* parent) {
  auto wrapped = std::make_unique<nn::Sequential>();
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    wrapped->add(std::make_unique<LayerProbe>(model.layer(i).clone(), totals,
                                              spans, parent));
  }
  return wrapped;
}

StrategyProbe::StrategyProbe(sched::SelectionStrategy& inner, SpanRecorder* spans,
                             const std::atomic<std::uint64_t>* parent)
    : inner_(inner), spans_(spans), parent_(parent) {
  starts_.reserve(4096);
}

sched::Decision StrategyProbe::decide(const sched::FleetView& fleet,
                                      std::size_t round) {
  const std::int64_t start = now_ns();
  starts_.push_back(start);
  sched::Decision decision = inner_.decide(fleet, round);
  if (spans_ != nullptr) {
    const std::int64_t end = now_ns();
    durations_.push_back(end - start);
    spans_->record("sched.decide", start, end,
                   parent_->load(std::memory_order_relaxed));
  }
  return decision;
}

void StrategyProbe::reset() {
  inner_.reset();
  starts_.clear();
  durations_.clear();
}

}  // namespace perfbench
