// Long-term (off-chip) replay store with class-prototype-based acquisition
// (paper Sec. III-D, Eqs. 5-6).
//
// The store is class-balanced: each class owns capacity/num_classes slots.
// Every h batches, for each class c present in the short-term store, the
// class prototype P_c (Eq. 5: mean latent of c's LT entries) is formed and
// the ST sample with the largest
//     S_j = tanh( KL( p(y|st_j) || p(y|P_c) ) )                    (Eq. 6)
// — the sample whose predictive distribution disagrees most with its class
// prototype, i.e. the most diverse/contrastive one — replaces a uniformly
// random same-class LT entry (Algorithm 1, lines 12-14).
#pragma once

#include <cmath>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>

#include "replay/sample.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "util/check.h"

namespace cham::core {

class LongTermMemory {
 public:
  // Batch scorer: maps latent rows (rows[i] is the first of the CxHxW floats
  // of one latent) to their softmax probabilities under the current head,
  // an N x num_classes tensor whose row i belongs to rows[i]. Supplied by
  // the learner that owns g; one call scores a whole update_from.
  using ScoreFn = std::function<Tensor(std::span<const float* const> rows)>;

  LongTermMemory(int64_t capacity, int64_t num_classes)
      : capacity_(capacity),
        num_classes_(num_classes),
        per_class_quota_(std::max<int64_t>(1, capacity / num_classes)),
        slots_(static_cast<size_t>(num_classes)),
        cached_counts_(static_cast<size_t>(num_classes), 0),
        proto_sums_(static_cast<size_t>(num_classes)) {}

  int64_t capacity() const { return capacity_; }
  int64_t per_class_quota() const { return per_class_quota_; }
  int64_t size() const {
    int64_t n = 0;
    for (const auto& v : slots_) n += static_cast<int64_t>(v.size());
    return n;
  }
  int64_t class_count(int64_t c) const {
    return static_cast<int64_t>(slots_[static_cast<size_t>(c)].size());
  }
  const std::vector<replay::ReplaySample>& class_slots(int64_t c) const {
    return slots_[static_cast<size_t>(c)];
  }

  // Eq. 5: mean latent of class c's stored entries. Empty optional if the
  // class has no entries yet.
  std::optional<Tensor> prototype(int64_t c) const {
    const auto& v = slots_[static_cast<size_t>(c)];
    if (v.empty()) return std::nullopt;
    Tensor proto(v.front().latent.shape());
    for (const auto& s : v) proto += s.latent;
    proto *= 1.0f / static_cast<float>(v.size());
    return proto;
  }

  // Eq. 6 score for one candidate against its class prototype.
  static double prototype_divergence(std::span<const float> cand_probs,
                                     std::span<const float> proto_probs) {
    return std::tanh(cham::ops::kl_divergence(cand_probs, proto_probs));
  }

  // One LT update from the short-term store contents: greedily pick the
  // max-S_j ST sample per class and insert it (Algorithm 1 lines 12-14).
  // Returns the number of classes updated. If `proto_entries_read` is
  // non-null it receives the number of stored LT entries actually streamed
  // to form prototypes (Eq. 5 reads class_count(c) entries, which is below
  // per_class_quota() until the class slot fills) — the number the memory
  // traffic model must charge, not the quota.
  int64_t update_from(const std::vector<replay::ReplaySample>& st_samples,
                      const ScoreFn& score, Rng& rng,
                      int64_t* proto_entries_read = nullptr) {
    // Group ST candidates by class.
    std::unordered_map<int64_t, std::vector<const replay::ReplaySample*>>
        by_class;
    for (const auto& s : st_samples) by_class[s.label].push_back(&s);

    // Gather the Eq. 6 rows of every class that has a choice to make and a
    // prototype to make it against: its prototype, then its candidates, in
    // class iteration order. Nothing is inserted before the scores are
    // read, and an insert only ever touches its own class, so each
    // prototype equals the one a class-by-class pass would form. One call
    // scores every row; the head is row-independent in eval mode, so each
    // row's probabilities are bit-identical to a one-row forward.
    std::vector<Tensor> protos;
    protos.reserve(by_class.size());
    std::vector<const float*> rows;
    for (auto& [cls, candidates] : by_class) {
      if (candidates.size() < 2) continue;
      if (auto proto = prototype(cls)) {
        protos.push_back(std::move(*proto));
        rows.push_back(protos.back().data());
        for (const auto* cand : candidates) rows.push_back(cand->latent.data());
      }
    }
    const Tensor probs = rows.empty() ? Tensor() : score(rows);
    const auto nrows = static_cast<int64_t>(rows.size());
    CHAM_CHECK(nrows == 0 || (probs.rank() == 2 && probs.dim(0) == nrows),
               "LT scorer returned " + probs.shape().to_string() + " for " +
                   std::to_string(nrows) + " rows");

    int64_t updated = 0;
    int64_t next_row = 0;
    if (proto_entries_read) *proto_entries_read = 0;
    for (auto& [cls, candidates] : by_class) {
      const replay::ReplaySample* best = candidates.front();
      // With a single candidate the prototype cannot change the choice, so
      // its entries are not read at all.
      if (candidates.size() > 1) {
        if (class_count(cls) > 0) {
          if (proto_entries_read) *proto_entries_read += class_count(cls);
          const auto proto_probs = probs.row(next_row++);
          double best_s = -1;
          for (const auto* cand : candidates) {
            const double s =
                prototype_divergence(probs.row(next_row++), proto_probs);
            if (s > best_s) {
              best_s = s;
              best = cand;
            }
          }
        } else {
          // No prototype yet: any candidate is equally informative.
          best = candidates[static_cast<size_t>(
              rng.uniform_int(static_cast<int64_t>(candidates.size())))];
        }
      }
      insert(*best, rng);
      ++updated;
    }
    return updated;
  }

  // Class-balanced insertion: fill the class quota first, then replace a
  // uniformly random same-class entry. Maintains the redundant audit state
  // (cached count + running prototype sum) that check_invariants() verifies
  // against the stored entries.
  void insert(const replay::ReplaySample& sample, Rng& rng) {
    CHAM_CHECK(sample.label >= 0 && sample.label < num_classes_,
               "LT insert label " + std::to_string(sample.label) +
                   " out of " + std::to_string(num_classes_) + " classes");
    const auto cls = static_cast<size_t>(sample.label);
    auto& v = slots_[cls];
    auto& sum = proto_sums_[cls];
    if (sum.size() != static_cast<size_t>(sample.latent.numel())) {
      sum.assign(static_cast<size_t>(sample.latent.numel()), 0.0);
    }
    if (static_cast<int64_t>(v.size()) < per_class_quota_) {
      v.push_back(sample);
      ++cached_counts_[cls];
    } else {
      auto& victim = v[static_cast<size_t>(
          rng.uniform_int(static_cast<int64_t>(v.size())))];
      for (int64_t i = 0; i < victim.latent.numel(); ++i) {
        sum[static_cast<size_t>(i)] -= victim.latent[i];
      }
      victim = sample;
    }
    for (int64_t i = 0; i < sample.latent.numel(); ++i) {
      sum[static_cast<size_t>(i)] += sample.latent[i];
    }
  }

  // All stored entries (checkpointing; order: by class, then slot).
  std::vector<replay::ReplaySample> all_samples() const {
    std::vector<replay::ReplaySample> out;
    out.reserve(static_cast<size_t>(size()));
    for (const auto& v : slots_) {
      for (const auto& s : v) out.push_back(s);
    }
    return out;
  }

  void clear() {
    for (auto& v : slots_) v.clear();
    for (auto& c : cached_counts_) c = 0;
    for (auto& s : proto_sums_) s.clear();
  }

  // Stable coordinate of a stored entry: (class, slot index within the
  // class). Valid across later update_from calls — insert() only appends to
  // a class vector or overwrites a slot in place, never reorders or erases,
  // so a ref taken at staging time still names a live same-class entry at
  // consume time (possibly refreshed contents; the staged burst deliberately
  // re-reads whatever the slot holds now instead of a deep-copied snapshot).
  struct SlotRef {
    int32_t cls = 0;
    int32_t slot = 0;
  };

  const replay::ReplaySample& entry(SlotRef ref) const {
    CHAM_DCHECK(ref.cls >= 0 && ref.cls < num_classes_ &&
                    ref.slot >= 0 && ref.slot < class_count(ref.cls),
                "LT entry ref out of range");
    return slots_[static_cast<size_t>(ref.cls)][static_cast<size_t>(ref.slot)];
  }

  // Uniformly random minibatch of slot refs — the zero-copy counterpart of
  // sample(). Enumerates entries in the SAME class-major order and consumes
  // the SAME single sample_without_replacement draw, so switching a caller
  // between the two leaves the RNG stream bit-identical.
  std::vector<SlotRef> sample_refs(int64_t k, Rng& rng) const {
    std::vector<SlotRef> all;
    all.reserve(static_cast<size_t>(size()));
    for (size_t c = 0; c < slots_.size(); ++c) {
      for (size_t j = 0; j < slots_[c].size(); ++j) {
        all.push_back(SlotRef{static_cast<int32_t>(c),
                              static_cast<int32_t>(j)});
      }
    }
    if (all.empty()) return {};
    const auto idx = rng.sample_without_replacement(
        static_cast<int64_t>(all.size()),
        std::min<int64_t>(k, static_cast<int64_t>(all.size())));
    std::vector<SlotRef> out;
    out.reserve(idx.size());
    for (int64_t i : idx) out.push_back(all[static_cast<size_t>(i)]);
    return out;
  }

  // Uniformly random minibatch across all stored entries.
  std::vector<const replay::ReplaySample*> sample(int64_t k, Rng& rng) const {
    std::vector<const replay::ReplaySample*> all;
    all.reserve(static_cast<size_t>(size()));
    for (const auto& v : slots_) {
      for (const auto& s : v) all.push_back(&s);
    }
    if (all.empty()) return {};
    const auto idx = rng.sample_without_replacement(
        static_cast<int64_t>(all.size()),
        std::min<int64_t>(k, static_cast<int64_t>(all.size())));
    std::vector<const replay::ReplaySample*> out;
    out.reserve(idx.size());
    for (int64_t i : idx) out.push_back(all[static_cast<size_t>(i)]);
    return out;
  }

  // Structural audit (paper Sec. III-D): per-class occupancy within the
  // balanced quota, every entry filed under its own label with a live latent,
  // and the redundant state maintained by insert() — cached counts and
  // running prototype sums (Eq. 5 numerators) — consistent with the entries
  // actually stored. A divergence means some path mutated the store without
  // going through insert()/clear(), exactly the class of silent
  // buffer-management bug that corrupts accuracy without crashing.
  util::AuditReport check_invariants() const {
    util::AuditReport report;
    for (int64_t c = 0; c < num_classes_; ++c) {
      const auto ci = static_cast<size_t>(c);
      const auto& v = slots_[ci];
      const auto n = static_cast<int64_t>(v.size());
      if (n > per_class_quota_) {
        report.fail("LongTermMemory: class " + std::to_string(c) + " holds " +
                    std::to_string(n) + " entries over quota " +
                    std::to_string(per_class_quota_));
      }
      if (cached_counts_[ci] != n) {
        report.fail("LongTermMemory: class " + std::to_string(c) +
                    " cached count " + std::to_string(cached_counts_[ci]) +
                    " != stored " + std::to_string(n));
      }
      std::vector<double> sum;
      for (const auto& s : v) {
        if (s.label != c) {
          report.fail("LongTermMemory: entry labelled " +
                      std::to_string(s.label) + " filed under class " +
                      std::to_string(c));
        }
        if (s.latent.empty()) {
          report.fail("LongTermMemory: dangling latent under class " +
                      std::to_string(c));
          continue;
        }
        if (sum.empty()) sum.resize(static_cast<size_t>(s.latent.numel()), 0.0);
        if (static_cast<int64_t>(sum.size()) != s.latent.numel()) {
          report.fail("LongTermMemory: latent shape mismatch under class " +
                      std::to_string(c));
          continue;
        }
        for (int64_t i = 0; i < s.latent.numel(); ++i) {
          sum[static_cast<size_t>(i)] += s.latent[i];
        }
      }
      // Prototype consistency: cached sum / count == mean of live entries
      // within tolerance (incremental double accumulation drifts by far less).
      if (!v.empty()) {
        const auto& cached = proto_sums_[ci];
        if (cached.size() != sum.size()) {
          report.fail("LongTermMemory: class " + std::to_string(c) +
                      " prototype sum has wrong length");
        } else {
          for (size_t i = 0; i < sum.size(); ++i) {
            const double diff = std::abs(cached[i] - sum[i]);
            if (diff > 1e-3 * (1.0 + std::abs(sum[i]))) {
              report.fail(
                  "LongTermMemory: class " + std::to_string(c) +
                  " prototype diverges from mean of live entries at index " +
                  std::to_string(i) + " (cached " + std::to_string(cached[i]) +
                  " vs recomputed " + std::to_string(sum[i]) + ")");
              break;
            }
          }
        }
      }
    }
    return report;
  }

  // Test-only corruption hooks: give contract tests a way to damage the
  // redundant audit state without routing through insert(), proving the
  // audit actually detects prototype / count divergence.
  std::vector<double>& mutable_prototype_sum_for_test(int64_t c) {
    return proto_sums_[static_cast<size_t>(c)];
  }
  int64_t& mutable_cached_count_for_test(int64_t c) {
    return cached_counts_[static_cast<size_t>(c)];
  }

 private:
  int64_t capacity_, num_classes_, per_class_quota_;
  std::vector<std::vector<replay::ReplaySample>> slots_;  // per class
  // Redundant audit state maintained by insert()/clear(): per-class entry
  // counts and running latent sums (Eq. 5 prototype numerators).
  std::vector<int64_t> cached_counts_;
  std::vector<std::vector<double>> proto_sums_;
};

}  // namespace cham::core
