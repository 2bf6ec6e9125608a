// Unit tests of the benchmark's own rules: the percentile rule (a tail is
// reported only with at least ten samples beyond it) and per-seed schedule
// determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "workload.h"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

TEST(Percentile, P99NeedsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(percentile(ramp(1000), 0.99), 990.0);
  EXPECT_THROW(percentile(ramp(999), 0.99), std::runtime_error);
}

TEST(Percentile, NearestRankAndMedian) {
  EXPECT_DOUBLE_EQ(percentile(ramp(200), 0.95), 190.0);
  EXPECT_DOUBLE_EQ(percentile(ramp(100), 0.90), 90.0);
  EXPECT_DOUBLE_EQ(median(ramp(5)), 3.0);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_THROW(median({}), std::runtime_error);
}

TEST(Percentile, TailIsTheHighestSupported) {
  EXPECT_DOUBLE_EQ(tail_quantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(tail_quantile(999), 0.95);
  EXPECT_DOUBLE_EQ(tail_quantile(200), 0.95);
  EXPECT_DOUBLE_EQ(tail_quantile(199), 0.90);
  EXPECT_DOUBLE_EQ(tail_quantile(100), 0.90);
  EXPECT_THROW(tail_quantile(99), std::runtime_error);
  // Whatever tail is chosen is one percentile() accepts.
  for (std::size_t n : {100u, 150u, 200u, 640u, 1000u, 4000u}) {
    EXPECT_NO_THROW(percentile(ramp(n), tail_quantile(n))) << n;
  }
}

TEST(Percentile, WindowedMedianOfWindowPercentiles) {
  // Stationary: every 200-sample window has the same p90.
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i % 100 + 1);
  EXPECT_DOUBLE_EQ(windowed_percentile(v, 0.9), 90.0);
  // A stall confined to one window does not move the result.
  for (int i = 200; i < 400; ++i) v[static_cast<size_t>(i)] += 1000;
  EXPECT_DOUBLE_EQ(windowed_percentile(v, 0.9), 90.0);
  EXPECT_DOUBLE_EQ(windowed_percentile(v, 0.5), 50.0);
  // Fewer than 200 samples: one window, the plain percentile.
  EXPECT_DOUBLE_EQ(windowed_percentile(ramp(150), 0.9), 135.0);
  EXPECT_THROW(windowed_percentile(ramp(99), 0.9), std::runtime_error);
}

bool same_ops(const std::vector<Op>& a, const std::vector<Op>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].session != b[i].session || a[i].kind != b[i].kind ||
        a[i].batch != b[i].batch || a[i].due_s != b[i].due_s ||
        a[i].keys.size() != b[i].keys.size()) {
      return false;
    }
    for (std::size_t k = 0; k < a[i].keys.size(); ++k) {
      if (a[i].keys[k].packed() != b[i].keys[k].packed()) return false;
    }
  }
  return true;
}

TEST(Schedule, DeterministicPerSeed) {
  for (const WorkloadSpec& w : workloads()) {
    const Inputs a = make_inputs(w, 7, 2.0, 300);
    const Inputs b = make_inputs(w, 7, 2.0, 300);
    const Inputs c = make_inputs(w, 8, 2.0, 300);
    EXPECT_TRUE(same_ops(a.warmup, b.warmup)) << w.name;
    EXPECT_TRUE(same_ops(a.open_loop, b.open_loop)) << w.name;
    EXPECT_TRUE(same_ops(a.closed_loop, b.closed_loop)) << w.name;
    EXPECT_FALSE(same_ops(a.open_loop, c.open_loop)) << w.name;
    ASSERT_EQ(a.streams.size(), b.streams.size());
    for (std::size_t s = 0; s < a.streams.size(); ++s) {
      ASSERT_EQ(a.streams[s].size(), b.streams[s].size());
      for (std::size_t i = 0; i < a.streams[s].size(); ++i) {
        EXPECT_EQ(a.streams[s][i].labels, b.streams[s][i].labels);
      }
    }
  }
}

TEST(Schedule, ExactMixPoissonTimesAndStreamOrder) {
  for (const WorkloadSpec& w : workloads()) {
    const Inputs in = make_inputs(w, 3, 4.0, 500);
    const auto n = static_cast<int64_t>(in.open_loop.size());
    EXPECT_EQ(n, std::llround(w.rate_per_s * 4.0)) << w.name;
    int64_t predicts = 0;
    double prev = 0;
    std::vector<int64_t> next(static_cast<size_t>(w.sessions), 0);
    for (const auto* list :
         {&in.prepop, &in.warmup, &in.open_loop, &in.closed_loop}) {
      for (const Op& op : *list) {
        ASSERT_GE(op.session, 0);
        ASSERT_LT(op.session, w.sessions);
        if (op.kind == Kind::kObserve) {
          // Each session walks its own stream in order, across the lists.
          EXPECT_EQ(op.batch, next[static_cast<size_t>(op.session)]++);
        } else {
          EXPECT_GE(static_cast<int64_t>(op.keys.size()), w.page_min);
          EXPECT_LE(static_cast<int64_t>(op.keys.size()), w.page_max);
        }
      }
    }
    for (const Op& op : in.open_loop) {
      predicts += op.kind == Kind::kPredict;
      EXPECT_GT(op.due_s, prev);
      prev = op.due_s;
    }
    EXPECT_EQ(predicts, std::llround(static_cast<double>(n) * w.predict_frac))
        << w.name;
    // Mean gap within 20% of 1/rate for these sample sizes.
    EXPECT_NEAR(prev / static_cast<double>(n), 1.0 / w.rate_per_s,
                0.2 / w.rate_per_s)
        << w.name;
  }
}

}  // namespace
}  // namespace perfbench
