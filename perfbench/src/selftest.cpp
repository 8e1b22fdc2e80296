// Tests of the benchmark's own helpers: the percentile reporter, the
// transparency of the traced-run instruments, and the determinism of the
// svc_fleet_tcp report generator.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <set>
#include <vector>

#include "percentile.h"
#include "svc_workload.h"
#include "train_workloads.h"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

TEST(Percentile, TailIsHighestRungWithTenSamplesBeyond) {
  const LatencySummary s1000 = summarize(one_to(1000));
  EXPECT_EQ(s1000.count, 1000u);
  EXPECT_DOUBLE_EQ(s1000.tail_pct, 99.0);
  EXPECT_DOUBLE_EQ(s1000.tail, 990.0);
  EXPECT_DOUBLE_EQ(s1000.p50, 500.0);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);

  // 999 samples leave only 9 beyond p99, so the tail drops to p95.
  const LatencySummary s999 = summarize(one_to(999));
  EXPECT_DOUBLE_EQ(s999.tail_pct, 95.0);
  EXPECT_GE(samples_beyond(999, s999.tail_pct), 10u);

  EXPECT_DOUBLE_EQ(summarize(one_to(10000)).tail_pct, 99.9);
  EXPECT_DOUBLE_EQ(summarize(one_to(300)).tail_pct, 95.0);
}

TEST(Percentile, FewSamplesFallBackToTheMedianAndStateTheCount) {
  const LatencySummary s = summarize(one_to(10));
  EXPECT_EQ(s.count, 10u);
  EXPECT_DOUBLE_EQ(s.tail_pct, 50.0);
  EXPECT_DOUBLE_EQ(s.tail, s.p50);
  EXPECT_EQ(tail_label(summarize(one_to(1000))), "p99 of 1000");
  EXPECT_EQ(summarize({}).count, 0u);
}

TEST(Percentile, OrderDoesNotMatter) {
  std::vector<double> values = one_to(2000);
  std::reverse(values.begin(), values.end());
  const LatencySummary s = summarize(values);
  EXPECT_DOUBLE_EQ(s.p50, 1000.0);
  EXPECT_DOUBLE_EQ(s.tail, 1980.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

void expect_transparent(const TrainSpec& spec, std::size_t rounds) {
  const TrainFingerprint plain = train_fingerprint(spec, 5, rounds, false);
  const TrainFingerprint traced = train_fingerprint(spec, 5, rounds, true);
  ASSERT_EQ(plain.weights.size(), traced.weights.size());
  EXPECT_EQ(0, std::memcmp(plain.weights.data(), traced.weights.data(),
                           plain.weights.size() * sizeof(float)));
  EXPECT_EQ(plain.total_delay_s, traced.total_delay_s);
  EXPECT_EQ(plain.total_energy_j, traced.total_energy_j);
  EXPECT_EQ(plain.final_accuracy, traced.final_accuracy);
  EXPECT_GT(plain.total_delay_s, 0.0);
}

TEST(Instruments, LayerWrapperAndStrategyDecoratorAreTransparentSync) {
  expect_transparent(train_sync_cnn_spec(), 4);
}

TEST(Instruments, LayerWrapperAndStrategyDecoratorAreTransparentAsync) {
  expect_transparent(train_async_faults_spec(), 30);
}

TEST(ReportGenerator, SameSeedSameStream) {
  SvcSpec spec;
  spec.devices = 3000;
  const auto users = make_svc_users(spec, 9);
  ReportGenerator a(users, spec, 9);
  ReportGenerator b(users, spec, 9);
  ReportGenerator other(users, spec, 10);
  const auto reg_a = a.registration();
  const auto reg_b = b.registration();
  other.registration();
  ASSERT_EQ(reg_a.size(), users.size());
  for (std::size_t d = 0; d < reg_a.size(); ++d) {
    EXPECT_EQ(reg_a[d].device_id, reg_b[d].device_id);
    EXPECT_EQ(reg_a[d].report_seq, 1u);
    EXPECT_EQ(reg_a[d].t_cal_max_s, users[d].t_cal_max_s);
  }
  bool any_difference = false;
  for (std::uint64_t r = 0; r < 6; ++r) {
    const auto ra = a.round(r);
    const auto rb = b.round(r);
    const auto ro = other.round(r);
    ASSERT_EQ(ra.size(), 30u);
    ASSERT_EQ(ra.size(), rb.size());
    std::set<std::uint64_t> ids;
    for (std::size_t k = 0; k < ra.size(); ++k) {
      EXPECT_EQ(ra[k].device_id, rb[k].device_id);
      EXPECT_EQ(ra[k].report_seq, rb[k].report_seq);
      EXPECT_EQ(ra[k].t_cal_max_s, rb[k].t_cal_max_s);
      EXPECT_EQ(ra[k].t_com_s, rb[k].t_com_s);
      EXPECT_GE(ra[k].report_seq, 2u);
      const auto& user = users[ra[k].device_id];
      EXPECT_GE(ra[k].t_cal_max_s, 0.8 * user.t_cal_max_s);
      EXPECT_LE(ra[k].t_cal_max_s, 1.2 * user.t_cal_max_s);
      ids.insert(ra[k].device_id);
      any_difference = any_difference || ra[k].device_id != ro[k].device_id;
    }
    EXPECT_EQ(ids.size(), ra.size()) << "round " << r << " repeats a device";
  }
  EXPECT_TRUE(any_difference) << "a different seed should give another stream";
}

}  // namespace
}  // namespace perfbench
