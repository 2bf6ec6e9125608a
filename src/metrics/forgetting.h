// Continual-learning forgetting diagnostics beyond the paper's Acc_all:
// the per-domain accuracy matrix R (R[i][j] = accuracy on domain j's test
// split after training through domain i), Backward Transfer (BWT) from
// Lopez-Paz & Ranzato (GEM, NeurIPS 2017) and max forgetting.
//
// Used by the streaming_monitor example and the forgetting tests; benches
// that only need the paper's headline metric keep using evaluate().
#pragma once

#include <vector>

#include "core/learner.h"
#include "data/dataset.h"

namespace cham::metrics {

class ForgettingTracker {
 public:
  explicit ForgettingTracker(const data::DatasetConfig& cfg);

  // Evaluates `learner` on every domain's test split; call once after each
  // training domain completes. Returns this row of the matrix (accuracy in
  // percent per evaluated domain).
  const std::vector<double>& record_after_domain(
      core::ContinualLearner& learner, int64_t trained_domain);

  // R[i][j]; rows appear in the order record_after_domain was called.
  const std::vector<std::vector<double>>& matrix() const { return rows_; }

  // Average final accuracy over all domains (last row mean) — matches
  // Acc_all when test splits are balanced.
  double final_average() const;

  // BWT = mean_j<last ( R[last][j] - R[j][j] ): negative means forgetting.
  double backward_transfer() const;

  // Largest single-domain drop from its just-trained accuracy (max
  // forgetting, the worst-case view BWT averages away).
  double max_forgetting() const;

 private:
  data::DatasetConfig cfg_;
  std::vector<std::vector<data::ImageKey>> domain_test_keys_;
  std::vector<std::vector<double>> rows_;
  std::vector<int64_t> trained_domains_;
};

}  // namespace cham::metrics
