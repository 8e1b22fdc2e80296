// Latency summaries for the end-to-end report.
//
// A timing is reported as its median and its *tail*: the highest
// percentile on a fixed ladder (99.9, 99, 95, 90, 75, 50) that still has at
// least ten samples beyond it, so a tail is never read off a handful of
// points.  The summary carries the percentile it chose and the sample
// count, and the report prints both next to the value.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct LatencySummary {
  std::size_t count = 0;    ///< samples summarized
  double p50 = 0.0;         ///< median (nearest rank)
  double tail = 0.0;        ///< value at `tail_pct`
  double tail_pct = 50.0;   ///< the percentile the tail was read at
};

/// Samples strictly beyond the nearest-rank `pct` percentile of `n` samples.
std::size_t samples_beyond(std::size_t n, double pct);

/// Nearest-rank percentile of already-sorted samples (0 when empty).
double percentile_sorted(const std::vector<double>& sorted, double pct);

/// Median and tail of `samples` (any order).  With fewer than 20 samples no
/// ladder rung has ten beyond it and the tail falls back to the median.
LatencySummary summarize(std::vector<double> samples);

/// "p99 of 1234" — the label printed beside a tail value.
std::string tail_label(const LatencySummary& summary);

/// Median of `values` (any order); 0 when empty.
double median(std::vector<double> values);

}  // namespace perfbench
