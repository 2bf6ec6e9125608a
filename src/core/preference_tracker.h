// User-preference estimation (paper Sec. III-B step 1 and Eq. 2).
//
// Tracks running per-class sample counts n_c. Every `learning_window`
// samples the top-k most frequent classes of the window become the preferred
// set and the allocation factor
//     Delta_k = n_k^rho / (n_k + n_{N-k})^rho            (Eq. 2)
// is recomputed, where n_k is the average window frequency of the preferred
// classes and n_{N-k} the average over the rest. rho in (0, 1] controls how
// aggressively acquisition favours preferred classes; rho = 0 treats all
// classes equally.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/workspace.h"
#include "util/bytes.h"
#include "util/check.h"

namespace cham::core {

class PreferenceTracker {
 public:
  PreferenceTracker(int64_t num_classes, int64_t top_k,
                    int64_t learning_window, float rho)
      : num_classes_(num_classes),
        top_k_(std::min(top_k, num_classes)),
        learning_window_(learning_window),
        rho_(rho),
        window_counts_(static_cast<size_t>(num_classes), 0),
        total_counts_(static_cast<size_t>(num_classes), 0),
        preferred_(static_cast<size_t>(num_classes), false) {}

  // Record one observed label; recalibrates when the window fills.
  void update(int64_t label) {
    ++window_counts_[static_cast<size_t>(label)];
    ++total_counts_[static_cast<size_t>(label)];
    if (++window_seen_ >= learning_window_) recalibrate();
  }

  bool is_preferred(int64_t cls) const {
    return preferred_[static_cast<size_t>(cls)];
  }
  double delta_k() const { return delta_k_; }
  // Per-class allocation weight used in Eq. 4: Delta_k for preferred
  // classes, (1 - Delta_k) for the rest.
  double delta(int64_t cls) const {
    return is_preferred(cls) ? delta_k_ : 1.0 - delta_k_;
  }

  std::vector<int64_t> preferred_classes() const {
    std::vector<int64_t> out;
    for (int64_t c = 0; c < num_classes_; ++c) {
      if (preferred_[static_cast<size_t>(c)]) out.push_back(c);
    }
    return out;
  }

  int64_t recalibrations() const { return recalibrations_; }
  int64_t samples_seen() const { return samples_seen_total_; }
  // Samples recorded in the current (incomplete) learning window. Exposed so
  // the checkpoint round-trip tests can assert mid-window counters survive a
  // save/restore cycle exactly.
  int64_t window_seen() const { return window_seen_; }

  // Full observable-state serialisation (checkpoint / session eviction).
  // Everything that influences future behaviour is included: the mid-window
  // counters matter because an evicted-and-restored session must recalibrate
  // at exactly the same stream position as an uninterrupted one.
  void save(ws::ByteBuf& out) const {
    util::put_i64(out, num_classes_);
    util::put_i64(out, top_k_);
    util::put_i64(out, learning_window_);
    util::put_bytes(out, &rho_, sizeof(rho_));
    for (int64_t c = 0; c < num_classes_; ++c) {
      const auto ci = static_cast<size_t>(c);
      util::put_i64(out, window_counts_[ci]);
      util::put_i64(out, total_counts_[ci]);
      util::put_u8(out, preferred_[ci] ? 1 : 0);
    }
    util::put_i64(out, window_seen_);
    util::put_i64(out, samples_seen_total_);
    util::put_i64(out, recalibrations_);
    util::put_bytes(out, &delta_k_, sizeof(delta_k_));
  }
  // The length of save()'s output: the configuration, two i64 counts and a
  // flag byte per class, the three running counters and delta_k.
  std::size_t saved_bytes() const {
    return 3 * 8 + sizeof(rho_) + static_cast<size_t>(num_classes_) * 17 +
           3 * 8 + sizeof(delta_k_);
  }

  // Restores into a tracker constructed with the SAME configuration; returns
  // false (tracker unspecified) on config mismatch or short read.
  bool load(util::Reader& r) {
    const int64_t num_classes = r.i64();
    const int64_t top_k = r.i64();
    const int64_t learning_window = r.i64();
    float rho = 0;
    if (!r.bytes(&rho, sizeof(rho)) || num_classes != num_classes_ ||
        top_k != top_k_ || learning_window != learning_window_ ||
        rho != rho_) {
      return false;
    }
    for (int64_t c = 0; c < num_classes_; ++c) {
      const auto ci = static_cast<size_t>(c);
      window_counts_[ci] = r.i64();
      total_counts_[ci] = r.i64();
      preferred_[ci] = r.u8() != 0;
    }
    window_seen_ = r.i64();
    samples_seen_total_ = r.i64();
    recalibrations_ = r.i64();
    return r.bytes(&delta_k_, sizeof(delta_k_));
  }

  // Structural audit (Eq. 2 bookkeeping): the Delta_k weight stays a usable
  // probability (clamped to [0.05, 0.95]), the preferred set never contains
  // a class the stream has not revealed, never exceeds top_k, and the
  // window/total counters reconcile with the number of updates recorded.
  util::AuditReport check_invariants() const {
    util::AuditReport report;
    if (!(delta_k_ >= 0.05 && delta_k_ <= 0.95)) {
      report.fail("PreferenceTracker: delta_k " + std::to_string(delta_k_) +
                  " outside [0.05, 0.95]");
    }
    int64_t n_pref = 0, window_sum = 0, total_sum = 0;
    for (int64_t c = 0; c < num_classes_; ++c) {
      const auto ci = static_cast<size_t>(c);
      if (window_counts_[ci] < 0 || total_counts_[ci] < 0) {
        report.fail("PreferenceTracker: negative count for class " +
                    std::to_string(c));
      }
      window_sum += window_counts_[ci];
      total_sum += total_counts_[ci];
      if (preferred_[ci]) {
        ++n_pref;
        if (total_counts_[ci] == 0) {
          report.fail("PreferenceTracker: never-seen class " +
                      std::to_string(c) + " marked preferred");
        }
      }
    }
    if (n_pref > top_k_) {
      report.fail("PreferenceTracker: " + std::to_string(n_pref) +
                  " preferred classes exceed top_k " + std::to_string(top_k_));
    }
    if (window_sum != window_seen_) {
      report.fail("PreferenceTracker: window counts sum " +
                  std::to_string(window_sum) + " != window_seen " +
                  std::to_string(window_seen_));
    }
    if (window_seen_ >= learning_window_) {
      report.fail("PreferenceTracker: window_seen " +
                  std::to_string(window_seen_) +
                  " not reset at learning_window " +
                  std::to_string(learning_window_));
    }
    if (total_sum != samples_seen_total_ + window_seen_) {
      report.fail("PreferenceTracker: total counts sum " +
                  std::to_string(total_sum) +
                  " != recalibrated + in-window samples " +
                  std::to_string(samples_seen_total_ + window_seen_));
    }
    return report;
  }

 private:
  void recalibrate() {
    samples_seen_total_ += window_seen_;
    ++recalibrations_;
    // Rank classes by window frequency; ties broken by class id for
    // determinism. The explicit tie-break makes plain (in-place) sort give
    // the stable-sort order without its temporary buffer: recalibration
    // runs inside the steady-state replay loop and must not allocate.
    order_.resize(static_cast<size_t>(num_classes_));
    for (int64_t c = 0; c < num_classes_; ++c)
      order_[static_cast<size_t>(c)] = c;
    std::sort(order_.begin(), order_.end(), [&](int64_t a, int64_t b) {
      const int64_t wa = window_counts_[static_cast<size_t>(a)];
      const int64_t wb = window_counts_[static_cast<size_t>(b)];
      if (wa != wb) return wa > wb;
      return a < b;
    });
    std::fill(preferred_.begin(), preferred_.end(), false);
    // Only classes actually seen in the window are eligible: a stream that
    // has revealed fewer than top_k classes must not grant never-seen
    // classes the Delta_k allocation weight, and n_k averages over the
    // actually-preferred set, not a padded top_k.
    double pref_sum = 0, other_sum = 0;
    int64_t n_pref = 0;
    for (int64_t i = 0; i < num_classes_; ++i) {
      const int64_t c = order_[static_cast<size_t>(i)];
      const double n = window_counts_[static_cast<size_t>(c)];
      if (i < top_k_ && n > 0) {
        preferred_[static_cast<size_t>(c)] = true;
        pref_sum += n;
        ++n_pref;
      } else {
        other_sum += n;
      }
    }
    const double n_k =
        n_pref > 0 ? pref_sum / static_cast<double>(n_pref) : 0.0;
    const double n_rest =
        num_classes_ > n_pref
            ? other_sum / static_cast<double>(num_classes_ - n_pref)
            : 0.0;
    // Eq. 2. With rho = 0 this is exactly 1 (all classes equally favoured,
    // delta(c) == 1 - delta(c) only when delta_k == 0.5, so clamp below).
    const double denom = n_k + n_rest;
    delta_k_ = denom > 0 ? std::pow(n_k, rho_) / std::pow(denom, rho_) : 0.5;
    // Keep the factor a usable probability weight.
    delta_k_ = std::clamp(delta_k_, 0.05, 0.95);
    std::fill(window_counts_.begin(), window_counts_.end(), int64_t{0});
    window_seen_ = 0;
  }

  int64_t num_classes_, top_k_, learning_window_;
  float rho_;
  std::vector<int64_t> window_counts_, total_counts_;
  std::vector<int64_t> order_;  // recalibrate() ranking scratch
  std::vector<bool> preferred_;
  int64_t window_seen_ = 0;
  int64_t samples_seen_total_ = 0;
  int64_t recalibrations_ = 0;
  double delta_k_ = 0.5;  // neutral until the first window completes
};

}  // namespace cham::core
