// Long-term (off-chip) replay store with class-prototype-based acquisition
// (paper Sec. III-D, Eqs. 5-6).
//
// The store is class-balanced: each class owns capacity/num_classes slots,
// kept in one replay::SlotStore slab per class (the same store the
// short-term memory uses, so both tiers share one framing and one decoder).
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

#include "replay/serialize.h"
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

  // Each class owns one slot store of per_class_quota() rows. A slot store
  // appends while below capacity, then overwrites a uniform_int(capacity)
  // slot: exactly the class-balanced insertion policy of Sec. III-D.
  LongTermMemory(int64_t capacity, int64_t num_classes)
      : capacity_(capacity),
        num_classes_(num_classes),
        per_class_quota_(std::max<int64_t>(1, capacity / num_classes)),
        classes_(static_cast<size_t>(num_classes),
                 replay::SlotStore(per_class_quota_)),
        cached_counts_(static_cast<size_t>(num_classes), 0),
        proto_sums_(static_cast<size_t>(num_classes)) {}

  int64_t capacity() const { return capacity_; }
  int64_t per_class_quota() const { return per_class_quota_; }
  int64_t size() const {
    int64_t n = 0;
    for (const auto& s : classes_) n += s.size();
    return n;
  }
  int64_t class_count(int64_t c) const { return class_store(c).size(); }
  const replay::SlotStore& class_store(int64_t c) const {
    return classes_[static_cast<size_t>(c)];
  }

  // Eq. 5: mean latent of class c's stored entries. Empty optional if the
  // class has no entries yet.
  std::optional<Tensor> prototype(int64_t c) const {
    const auto& s = class_store(c);
    if (s.size() == 0) return std::nullopt;
    Tensor proto(s.row_shape());
    float* p = proto.data();
    for (int64_t j = 0; j < s.size(); ++j) {
      const float* row = s.row(j);
      for (int64_t i = 0; i < s.row_numel(); ++i) p[i] += row[i];
    }
    proto *= 1.0f / static_cast<float>(s.size());
    return proto;
  }

  // Eq. 6 score for one candidate against its class prototype.
  static double prototype_divergence(std::span<const float> cand_probs,
                                     std::span<const float> proto_probs) {
    return std::tanh(cham::ops::kl_divergence(cand_probs, proto_probs));
  }

  // One LT update from the short-term store contents, read in place:
  // greedily pick the max-S_j ST row per class and insert it (Algorithm 1
  // lines 12-14). Returns the number of classes updated. If
  // `proto_entries_read` is non-null it receives the number of stored LT
  // entries actually streamed to form prototypes (Eq. 5 reads
  // class_count(c) entries, which is below per_class_quota() until the
  // class slot fills) — the number the memory traffic model must charge,
  // not the quota.
  int64_t update_from(const replay::SlotStore& st, const ScoreFn& score,
                      Rng& rng, int64_t* proto_entries_read = nullptr) {
    // Group ST slots by class, in slot order.
    std::unordered_map<int64_t, std::vector<int64_t>> by_class;
    for (int64_t i = 0; i < st.size(); ++i) by_class[st.label(i)].push_back(i);

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
        for (int64_t cand : candidates) rows.push_back(st.row(cand));
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
      int64_t best = candidates.front();
      // With a single candidate the prototype cannot change the choice, so
      // its entries are not read at all.
      if (candidates.size() > 1) {
        if (class_count(cls) > 0) {
          if (proto_entries_read) *proto_entries_read += class_count(cls);
          const auto proto_probs = probs.row(next_row++);
          double best_s = -1;
          for (int64_t cand : candidates) {
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
      insert(st.key(best), st.label(best), st.row_shape(), st.row(best), rng);
      ++updated;
    }
    return updated;
  }

  // Class-balanced insertion of one latent row (`shape` elements at `row`):
  // fill the class quota first, then replace a uniformly random same-class
  // entry. Maintains the redundant audit state (cached count + running
  // prototype sum) that check_invariants() verifies against the stored
  // entries.
  void insert(const data::ImageKey& key, int64_t label, const Shape& shape,
              const float* row, Rng& rng) {
    CHAM_CHECK(label >= 0 && label < num_classes_,
               "LT insert label " + std::to_string(label) + " out of " +
                   std::to_string(num_classes_) + " classes");
    const auto cls = static_cast<size_t>(label);
    auto& store = classes_[cls];
    store.configure(shape);
    const auto numel = static_cast<size_t>(store.row_numel());
    auto& sum = proto_sums_[cls];
    if (sum.size() != numel) sum.assign(numel, 0.0);
    const int64_t slot = store.next_slot(rng);
    if (slot < store.size()) {
      const float* victim = store.row(slot);
      for (size_t i = 0; i < numel; ++i) sum[i] -= victim[i];
    } else {
      ++cached_counts_[cls];
    }
    store.write(slot, key, label, shape, row);
    for (size_t i = 0; i < numel; ++i) sum[i] += row[i];
  }

  // The CHS2 LT section: one slot-store frame per class, in class order.
  void save(ws::ByteBuf& out) const {
    for (const auto& s : classes_) replay::save_slot_store_q(s, out);
  }
  // The length of save()'s output.
  std::size_t saved_bytes() const {
    std::size_t n = 0;
    for (const auto& s : classes_) n += replay::slot_store_bytes(s);
    return n;
  }

  // Replaces the contents with a section save() wrote. Returns false, with
  // the memory unchanged, on any malformed frame, a row shape other than
  // `row_shape`, a frame of more entries than the quota, or an entry filed
  // under a class other than its label. Rebuilds the audit state from the
  // loaded rows.
  bool load(util::Reader& r, const Shape& row_shape) {
    std::vector<replay::SlotStore> loaded(
        classes_.size(), replay::SlotStore(per_class_quota_));
    for (int64_t c = 0; c < num_classes_; ++c) {
      if (!replay::load_slot_store_q(loaded[static_cast<size_t>(c)], r,
                                     row_shape, c, c + 1)) {
        return false;
      }
    }
    classes_ = std::move(loaded);
    for (size_t c = 0; c < classes_.size(); ++c) {
      cached_counts_[c] = classes_[c].size();
      proto_sums_[c] = row_sums(classes_[c]);
    }
    return true;
  }

  // Stable coordinate of a stored entry: (class, slot index within the
  // class). Valid across later update_from calls — insert() only appends to
  // a class store or overwrites a slot in place, never reorders or erases,
  // so a ref taken at staging time still names a live same-class entry at
  // consume time (possibly refreshed contents; the staged burst deliberately
  // re-reads whatever the slot holds now instead of a deep-copied snapshot).
  struct SlotRef {
    int32_t cls = 0;
    int32_t slot = 0;
  };

  struct Entry {
    const float* row;
    int64_t label;
  };

  Entry entry(SlotRef ref) const {
    CHAM_DCHECK(ref.cls >= 0 && ref.cls < num_classes_ &&
                    ref.slot >= 0 && ref.slot < class_count(ref.cls),
                "LT entry ref out of range");
    const auto& s = class_store(ref.cls);
    return {s.row(ref.slot), s.label(ref.slot)};
  }

  // Uniformly random minibatch of distinct slot refs: every entry in
  // class-major order, then one sample_without_replacement draw.
  std::vector<SlotRef> sample_refs(int64_t k, Rng& rng) const {
    std::vector<SlotRef> all;
    all.reserve(static_cast<size_t>(size()));
    for (size_t c = 0; c < classes_.size(); ++c) {
      for (int64_t j = 0; j < classes_[c].size(); ++j) {
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

  // Structural audit (paper Sec. III-D): per-class occupancy within the
  // balanced quota, every entry filed under its own label in a configured
  // slab of the shared row size, and the redundant state maintained by
  // insert() — cached counts and running prototype sums (Eq. 5 numerators)
  // — consistent with the entries actually stored. A divergence means some
  // path mutated the store without going through insert()/load(), exactly
  // the class of silent buffer-management bug that corrupts accuracy
  // without crashing.
  util::AuditReport check_invariants() const {
    util::AuditReport report;
    int64_t row_numel = 0;
    for (int64_t c = 0; c < num_classes_; ++c) {
      const auto ci = static_cast<size_t>(c);
      const auto& s = classes_[ci];
      const int64_t n = s.size();
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
      if (n == 0) continue;
      if (!s.configured()) {
        report.fail("LongTermMemory: occupied class " + std::to_string(c) +
                    " has no row geometry");
        continue;
      }
      if (row_numel == 0) row_numel = s.row_numel();
      if (s.row_numel() != row_numel) {
        report.fail("LongTermMemory: latent shape mismatch under class " +
                    std::to_string(c));
      }
      for (int64_t j = 0; j < n; ++j) {
        if (s.label(j) != c) {
          report.fail("LongTermMemory: entry labelled " +
                      std::to_string(s.label(j)) + " filed under class " +
                      std::to_string(c));
        }
      }
      // Prototype consistency: cached sum / count == mean of live entries
      // within tolerance (incremental double accumulation drifts by far less).
      const auto sum = row_sums(s);
      const auto& cached = proto_sums_[ci];
      if (cached.size() != sum.size()) {
        report.fail("LongTermMemory: class " + std::to_string(c) +
                    " prototype sum has wrong length");
        continue;
      }
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
  // Per-element double sums of a store's rows in slot order (empty for an
  // empty store): the Eq. 5 numerator insert() maintains incrementally.
  static std::vector<double> row_sums(const replay::SlotStore& s) {
    std::vector<double> sum;
    if (s.size() == 0) return sum;
    sum.assign(static_cast<size_t>(s.row_numel()), 0.0);
    for (int64_t j = 0; j < s.size(); ++j) {
      const float* row = s.row(j);
      for (size_t i = 0; i < sum.size(); ++i) sum[i] += row[i];
    }
    return sum;
  }

  int64_t capacity_, num_classes_, per_class_quota_;
  std::vector<replay::SlotStore> classes_;  // one slot store per class
  // Redundant audit state maintained by insert()/load(): per-class entry
  // counts and running latent sums (Eq. 5 prototype numerators).
  std::vector<int64_t> cached_counts_;
  std::vector<std::vector<double>> proto_sums_;
};

}  // namespace cham::core
