// Short-term (on-chip) replay store with user-aware uncertainty sampling
// (paper Sec. III-C, Eqs. 3-4).
//
// Once per incoming batch, ONE element is selected with probability
//   p_i  ∝  alpha * Delta_i / Z_batch  +  beta * U_i^{-1}          (Eq. 4)
// where Delta_i is the preference allocation weight (Eq. 2), Z_batch the
// batch normaliser of those weights, and U_i = |o(x_i)_{y_i}| the true-class
// logit magnitude (Eq. 3 with one-hot y): low |logit| means the sample sits
// near the decision boundary and should be rehearsed, hence the inverse.
// The selected element replaces a uniformly random ST slot (Algorithm 1,
// lines 8-10).
#pragma once

#include <span>
#include <string>

#include "core/preference_tracker.h"
#include "quant/quantize.h"
#include "replay/buffer.h"
#include "util/check.h"

namespace cham::core {

struct StSamplingConfig {
  float alpha = 1.0f;  // weight of the user-affinity term
  float beta = 1.0f;   // weight of the uncertainty term
};

class ShortTermMemory {
 public:
  ShortTermMemory(int64_t capacity, StSamplingConfig cfg)
      : store_(capacity), cfg_(cfg) {}

  // Eq. 3: per-sample uncertainty scores from logits (N x C) and labels,
  // written into caller-owned storage (resized to labels.size()). The
  // steady-state update() path routes through this so repeat batches reuse
  // scratch capacity instead of allocating.
  static void uncertainty_scores_into(const Tensor& logits,
                                      std::span<const int64_t> labels,
                                      std::vector<double>& u) {
    u.resize(labels.size());
    for (size_t i = 0; i < labels.size(); ++i) {
      u[i] = std::abs(
          logits.at(static_cast<int64_t>(i), labels[i]));
    }
  }
  static std::vector<double> uncertainty_scores(
      const Tensor& logits, std::span<const int64_t> labels) {
    std::vector<double> u;
    uncertainty_scores_into(logits, labels, u);
    return u;
  }

  // Eq. 4 selection probabilities over the incoming batch.
  void selection_probabilities_into(std::span<const int64_t> labels,
                                    std::span<const double> uncertainty,
                                    const PreferenceTracker& prefs,
                                    std::vector<double>& p) const {
    const size_t n = labels.size();
    double z_batch = 0;
    for (size_t i = 0; i < n; ++i) z_batch += prefs.delta(labels[i]);
    if (z_batch <= 0) z_batch = 1.0;

    constexpr double kEps = 1e-6;
    p.resize(n);
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      const double affinity = prefs.delta(labels[i]) / z_batch;
      const double inv_u = 1.0 / (uncertainty[i] + kEps);
      p[i] = cfg_.alpha * affinity + cfg_.beta * inv_u;
      total += p[i];
    }
    if (total > 0) {
      for (double& v : p) v /= total;
    } else {
      std::fill(p.begin(), p.end(), 1.0 / static_cast<double>(n));
    }
  }
  std::vector<double> selection_probabilities(
      std::span<const int64_t> labels, std::span<const double> uncertainty,
      const PreferenceTracker& prefs) const {
    std::vector<double> p;
    selection_probabilities_into(labels, uncertainty, prefs, p);
    return p;
  }

  // Full update for one incoming batch: select one element by Eq. 4 and
  // replace a random ST slot. Returns the index selected from the batch.
  //
  // Zero-copy entry: the incoming batch arrives as parallel spans (keys,
  // labels, per-sample latent row pointers of `latent_shape` elements each)
  // and `logits` may be the FULL training logits — Eq. 3 reads only the
  // first labels.size() rows, so no per-step row copy is needed. The Eq. 4
  // winner (and only the winner) passes through `precision` on its way into
  // the store, which stores the same bits as quantising every candidate
  // up front — selection depends on logits alone.
  int64_t update(std::span<const data::ImageKey> keys,
                 std::span<const int64_t> labels,
                 std::span<const float* const> latents,
                 const Shape& latent_shape, const Tensor& logits,
                 const PreferenceTracker& prefs, Rng& rng,
                 quant::Precision precision = quant::Precision::kFp32) {
    CHAM_CHECK(keys.size() == labels.size() && keys.size() == latents.size(),
               "ShortTermMemory::update: span length mismatch");
    CHAM_CHECK(!keys.empty(), "ShortTermMemory::update: empty batch");
    uncertainty_scores_into(logits, labels, u_scratch_);
    selection_probabilities_into(labels, u_scratch_, prefs, p_scratch_);
    int64_t pick = rng.sample_weighted(p_scratch_);
    if (pick < 0) pick = rng.uniform_int(static_cast<int64_t>(keys.size()));
    const auto pi = static_cast<size_t>(pick);
    if (precision == quant::Precision::kFp32) {
      store_.random_replace_add(keys[pi], labels[pi], latent_shape,
                                latents[pi], rng);
    } else {
      quant_scratch_ = Tensor(latent_shape);
      std::memcpy(quant_scratch_.data(), latents[pi],
                  static_cast<size_t>(latent_shape.numel()) * sizeof(float));
      const Tensor q = quant::decode(quant::encode(quant_scratch_, precision));
      store_.random_replace_add(keys[pi], labels[pi], latent_shape, q.data(),
                                rng);
    }
    return pick;
  }

  const replay::SlotStore& store() const { return store_; }
  replay::SlotStore& store() { return store_; }
  int64_t size() const { return store_.size(); }
  int64_t capacity() const { return store_.capacity(); }

  // Structural audit: occupancy within capacity, the stream counter at
  // least as large as the occupancy, and no dangling slots — an occupied
  // store must have configured row geometry (Chameleon is a latent-replay
  // method; an unconfigured slab here would train the head on garbage) and
  // non-negative labels. Shape consistency per slot is structural now: all
  // rows share the slab geometry by construction.
  util::AuditReport check_invariants() const {
    util::AuditReport report;
    if (size() > capacity()) {
      report.fail("ShortTermMemory: size " + std::to_string(size()) +
                  " exceeds capacity " + std::to_string(capacity()));
    }
    if (store_.seen() < size()) {
      report.fail("ShortTermMemory: seen " + std::to_string(store_.seen()) +
                  " below occupancy " + std::to_string(size()));
    }
    if (size() > 0 && !store_.configured()) {
      report.fail("ShortTermMemory: occupied store has no row geometry");
    }
    for (int64_t i = 0; i < size(); ++i) {
      if (store_.label(i) < 0) {
        report.fail("ShortTermMemory: negative label in slot " +
                    std::to_string(i));
      }
    }
    return report;
  }

 private:
  replay::SlotStore store_;
  StSamplingConfig cfg_;
  // update() scratch, reused across batches (steady-state allocation-free).
  std::vector<double> u_scratch_, p_scratch_;
  Tensor quant_scratch_;
};

}  // namespace cham::core
