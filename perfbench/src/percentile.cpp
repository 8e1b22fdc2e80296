#include "percentile.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
constexpr std::size_t kMinBeyond = 10;

// 1-based nearest rank of percentile `pct` among `n` samples.
std::size_t nearest_rank(std::size_t n, double pct) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

std::size_t samples_beyond(std::size_t n, double pct) {
  if (n == 0) return 0;
  return n - nearest_rank(n, pct);
}

double percentile_sorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), pct) - 1];
}

LatencySummary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  LatencySummary summary;
  summary.count = samples.size();
  summary.p50 = percentile_sorted(samples, 50.0);
  summary.tail = summary.p50;
  for (const double pct : kLadder) {
    if (samples_beyond(samples.size(), pct) >= kMinBeyond) {
      summary.tail_pct = pct;
      summary.tail = percentile_sorted(samples, pct);
      break;
    }
  }
  return summary;
}

std::string tail_label(const LatencySummary& summary) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%g of %zu", summary.tail_pct, summary.count);
  return buf;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
