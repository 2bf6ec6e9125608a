#include "metrics/forgetting.h"

#include <algorithm>

namespace cham::metrics {

ForgettingTracker::ForgettingTracker(const data::DatasetConfig& cfg)
    : cfg_(cfg) {
  domain_test_keys_.resize(static_cast<size_t>(cfg.num_domains));
  for (int32_t d = 0; d < cfg.num_domains; ++d) {
    for (int32_t c = 0; c < cfg.num_classes; ++c) {
      for (int32_t i = 0; i < cfg.test_instances; ++i) {
        domain_test_keys_[static_cast<size_t>(d)].push_back(
            {c, d, i, /*test=*/true});
      }
    }
  }
}

const std::vector<double>& ForgettingTracker::record_after_domain(
    core::ContinualLearner& learner, int64_t trained_domain) {
  std::vector<double> row;
  row.reserve(domain_test_keys_.size());
  for (const auto& keys : domain_test_keys_) {
    const auto preds = learner.predict(keys);
    int64_t hit = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      hit += preds[i] == keys[i].class_id;
    }
    row.push_back(100.0 * static_cast<double>(hit) /
                  static_cast<double>(keys.size()));
  }
  trained_domains_.push_back(trained_domain);
  rows_.push_back(std::move(row));
  return rows_.back();
}

double ForgettingTracker::final_average() const {
  if (rows_.empty()) return 0;
  const auto& last = rows_.back();
  double acc = 0;
  for (double v : last) acc += v;
  return acc / static_cast<double>(last.size());
}

double ForgettingTracker::backward_transfer() const {
  if (rows_.size() < 2) return 0;
  const auto& last = rows_.back();
  double acc = 0;
  int64_t count = 0;
  for (size_t i = 0; i + 1 < rows_.size(); ++i) {
    const auto d = static_cast<size_t>(trained_domains_[i]);
    acc += last[d] - rows_[i][d];
    ++count;
  }
  return count > 0 ? acc / static_cast<double>(count) : 0;
}

double ForgettingTracker::max_forgetting() const {
  if (rows_.size() < 2) return 0;
  const auto& last = rows_.back();
  double worst = 0;
  for (size_t i = 0; i + 1 < rows_.size(); ++i) {
    const auto d = static_cast<size_t>(trained_domains_[i]);
    worst = std::max(worst, rows_[i][d] - last[d]);
  }
  return worst;
}

}  // namespace cham::metrics
