// SLDA statistics, the evaluator, the forgetting tracker, RunningStat and
// the table printer.
#include <gtest/gtest.h>

#include <sstream>

#include "metrics/evaluator.h"
#include "metrics/forgetting.h"
#include "metrics/stats.h"
#include "metrics/table.h"

namespace cham {
namespace {

TEST(RunningStat, MeanAndStd) {
  metrics::RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_NEAR(s.mean(), 5.0, 1e-12);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample std (n-1)
}

TEST(RunningStat, SingleSampleHasZeroStd) {
  metrics::RunningStat s;
  s.add(3.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.mean(), 3.0);
}

TEST(RunningStat, AggregateHelper) {
  auto s = metrics::aggregate({1.0, 2.0, 3.0});
  EXPECT_NEAR(s.mean(), 2.0, 1e-12);
}

TEST(TablePrinter, FormatsNumbers) {
  EXPECT_EQ(metrics::TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(metrics::TablePrinter::mean_std(79.48, 0.99),
            "79.48 +/- 0.99");
}

TEST(TablePrinter, RowsAlign) {
  std::ostringstream os;
  metrics::TablePrinter t({"A", "B"}, {6, 4});
  t.print_header(os);
  t.print_row({"x", "y"}, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("A      | B    |"), std::string::npos);
  EXPECT_NE(out.find("x      | y    |"), std::string::npos);
}

// A fake learner with scripted predictions for evaluator tests.
class ScriptedLearner : public core::ContinualLearner {
 public:
  explicit ScriptedLearner(int64_t correct_upto_class)
      : cut_(correct_upto_class) {}
  void observe(const data::Batch&) override {}
  std::vector<int64_t> predict(
      const std::vector<data::ImageKey>& keys) override {
    std::vector<int64_t> out;
    for (const auto& k : keys) {
      // Classes below the cut are predicted correctly; others wrong.
      out.push_back(k.class_id < cut_ ? k.class_id : (k.class_id + 1) % 100);
    }
    return out;
  }
  std::string name() const override { return "Scripted"; }
  int64_t memory_overhead_bytes() const override { return 0; }

 private:
  int64_t cut_;
};

std::vector<data::ImageKey> grid_keys(int32_t classes, int32_t per_class) {
  std::vector<data::ImageKey> keys;
  for (int32_t c = 0; c < classes; ++c) {
    for (int32_t i = 0; i < per_class; ++i) keys.push_back({c, 0, i, true});
  }
  return keys;
}

TEST(Evaluator, AccAllCountsCorrectFraction) {
  ScriptedLearner half(5);  // 5 of 10 classes correct
  const auto keys = grid_keys(10, 3);
  const auto rep = metrics::evaluate(half, keys);
  EXPECT_NEAR(rep.acc_all, 50.0, 1e-9);
}

TEST(Evaluator, PerClassSlices) {
  ScriptedLearner half(5);
  const auto keys = grid_keys(10, 4);
  const auto rep = metrics::evaluate(half, keys);
  ASSERT_EQ(rep.per_class.size(), 10u);
  EXPECT_EQ(rep.per_class[0], 100.0);
  EXPECT_EQ(rep.per_class[9], 0.0);
}

TEST(Evaluator, PreferredSliceUsesGivenClasses) {
  ScriptedLearner half(5);
  const auto keys = grid_keys(10, 2);
  const std::vector<int64_t> preferred = {0, 1, 9};
  const auto rep = metrics::evaluate(half, keys, preferred);
  EXPECT_NEAR(rep.acc_preferred, 100.0 * 2 / 3, 1e-6);
}

TEST(Evaluator, EmptyKeysSafe) {
  ScriptedLearner l(1);
  const auto rep = metrics::evaluate(l, {});
  EXPECT_EQ(rep.acc_all, 0.0);
}

TEST(Evaluator, PerfectAndZero) {
  ScriptedLearner all(100);
  ScriptedLearner none(0);
  const auto keys = grid_keys(7, 2);
  EXPECT_EQ(metrics::evaluate(all, keys).acc_all, 100.0);
  EXPECT_EQ(metrics::evaluate(none, keys).acc_all, 0.0);
}

// ---------------------------------------------------- forgetting tracker

// Scripted learner whose per-domain accuracy is controlled by a table.
class DomainScripted : public core::ContinualLearner {
 public:
  // knows[d] = true -> perfect on domain d, else 0%.
  explicit DomainScripted(std::vector<bool> knows)
      : knows_(std::move(knows)) {}
  void observe(const data::Batch&) override {}
  std::vector<int64_t> predict(
      const std::vector<data::ImageKey>& keys) override {
    std::vector<int64_t> out;
    for (const auto& k : keys) {
      out.push_back(knows_[static_cast<size_t>(k.domain_id)]
                        ? k.class_id
                        : (k.class_id + 1) % 1000);
    }
    return out;
  }
  std::string name() const override { return "DomainScripted"; }
  int64_t memory_overhead_bytes() const override { return 0; }
  std::vector<bool> knows_;
};

data::DatasetConfig tiny_cfg() {
  auto cfg = data::core50_config();
  cfg.num_classes = 4;
  cfg.num_domains = 3;
  cfg.test_instances = 2;
  return cfg;
}

TEST(ForgettingTracker, MatrixRowsMatchScript) {
  metrics::ForgettingTracker tracker(tiny_cfg());
  DomainScripted learner({true, false, false});
  auto row = tracker.record_after_domain(learner, 0);
  EXPECT_EQ(row[0], 100.0);
  EXPECT_EQ(row[1], 0.0);
}

TEST(ForgettingTracker, BwtIsNegativeUnderForgetting) {
  metrics::ForgettingTracker tracker(tiny_cfg());
  // After each domain, only the current domain is known (total forgetting).
  DomainScripted learner({true, false, false});
  tracker.record_after_domain(learner, 0);
  learner.knows_ = {false, true, false};
  tracker.record_after_domain(learner, 1);
  learner.knows_ = {false, false, true};
  tracker.record_after_domain(learner, 2);
  EXPECT_DOUBLE_EQ(tracker.backward_transfer(), -100.0);
  EXPECT_DOUBLE_EQ(tracker.max_forgetting(), 100.0);
  EXPECT_NEAR(tracker.final_average(), 100.0 / 3.0, 1e-9);
}

TEST(ForgettingTracker, NoForgettingGivesZeroBwt) {
  metrics::ForgettingTracker tracker(tiny_cfg());
  DomainScripted learner({true, true, true});
  tracker.record_after_domain(learner, 0);
  tracker.record_after_domain(learner, 1);
  tracker.record_after_domain(learner, 2);
  EXPECT_DOUBLE_EQ(tracker.backward_transfer(), 0.0);
  EXPECT_DOUBLE_EQ(tracker.max_forgetting(), 0.0);
  EXPECT_DOUBLE_EQ(tracker.final_average(), 100.0);
}

}  // namespace
}  // namespace cham
