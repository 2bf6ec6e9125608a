// ChameleonLearner: the paper's Algorithm 1.
//
// Per incoming batch B_t:
//   1. update running class statistics (PreferenceTracker)       [line 3]
//   2. Z_t = f(X_t) latent extraction (shared frozen backbone)   [line 4]
//   3. every h batches sample a minibatch m̂_l from LT            [line 5]
//      train g on  Z_t ∪ M_s ∪ m̂_l                              [lines 6-7]
//   4. select one element of B_t by Eq. 4 and replace a random
//      ST slot                                                   [lines 8-10]
//   5. every h batches, per class: max-S_j ST sample (Eq. 6)
//      replaces a random same-class LT entry                     [lines 12-14]
//
// The ST store is charged to on-chip SRAM traffic and the LT store to
// off-chip DRAM traffic, mirroring the paper's hardware mapping.
#pragma once

#include <cstddef>

#include "core/head_learner.h"
#include "core/long_term_memory.h"
#include "core/preference_tracker.h"
#include "core/short_term_memory.h"
#include "quant/quantize.h"
#include "replay/memory_accounting.h"
#include "tensor/workspace.h"
#include "util/bytes.h"

namespace cham::core {

// The byte buffer every stored-state writer appends to (tensor/workspace.h).
using ByteBuf = ws::ByteBuf;

struct ChameleonConfig {
  int64_t st_capacity = 10;    // paper: M_s = 10 samples
  int64_t lt_capacity = 100;   // paper: M_l in {100, 200, 500, 1500}
  int64_t lt_period_h = 10;    // LT accessed every h = 10 batches
  int64_t lt_replay_per_batch = 10;  // LT samples concatenated per batch
  int64_t top_k = 5;           // user-preferred classes tracked
  int64_t learning_window = 300;  // samples per recalibration window
  float rho = 0.5f;            // Eq. 2 exponent, in (0, 1)
  StSamplingConfig st_sampling;  // alpha / beta of Eq. 4

  // Storage precision of buffered latents. The FPGA design stores fp16 and
  // the EdgeTPU study uses BFP; reduced precision fits 2x-4x the samples in
  // the same on-chip budget (bench_ablation_precision measures the accuracy
  // cost). Latents are encoded on insertion and decoded on replay.
  quant::Precision buffer_precision = quant::Precision::kFp32;

  // Ablation switches (all `true` = the full method; see DESIGN.md).
  bool use_user_affinity = true;     // off: alpha = 0 (uncertainty only)
  bool use_uncertainty = true;       // off: beta = 0 (affinity only)
  bool use_prototype_selection = true;  // off: random ST->LT promotion
};

class ChameleonLearner : public HeadLearner {
 public:
  ChameleonLearner(const LearnerEnv& env, const ChameleonConfig& cfg,
                   uint64_t seed);

  void observe(const data::Batch& batch) override;
  std::string name() const override { return "Chameleon"; }
  int64_t memory_overhead_bytes() const override;

  // On-chip / off-chip split for the Table I & II reporting.
  int64_t st_bytes() const;
  int64_t lt_bytes() const;

  const PreferenceTracker& preferences() const { return prefs_; }
  const ShortTermMemory& short_term() const { return st_; }
  const LongTermMemory& long_term() const { return lt_; }
  const ChameleonConfig& config() const { return cfg_; }

  // Aggregated structural audit over every replay-path component (ST, LT,
  // PreferenceTracker, OpStats ledger). Run automatically after every
  // observe() under -DCHAM_CHECKS=full; callable any time from tests.
  util::AuditReport check_invariants() const;

  // Full mid-stream state serialisation: head weights, ST and LT contents,
  // preference statistics (including mid-window counters), the staged LT
  // burst and its cursor, the RNG state, the step counter and the traffic
  // ledger. load_state() into a learner constructed with the same config and
  // environment resumes the stream bit-identically — the contract the
  // serving runtime's checkpoint-backed session eviction (src/serve/) is
  // built on. Implemented in core/checkpoint.cpp.
  // A blob records the hash of the template its head is encoded against
  // (LearnerEnv::template_hash) and loads only into a learner with the same
  // one. save_state appends the blob to `out`, growing it at most once (it
  // reserves state_bytes_bound() past out's size first). load_state decodes
  // the head in place from r's span and accepts exactly one blob: it
  // returns false if bytes remain after it.
  bool save_state(ByteBuf& out) const;
  bool load_state(util::Reader& r);
  // An upper bound of save_state's output at the current state: the head at
  // one mask per 64 bytes over its raw bytes, plus the exact length of the
  // replay stores, preference statistics and ledger as they stand.
  std::size_t state_bytes_bound() const;
  int64_t steps_observed() const { return step_; }

 private:
  // Shape of one stored latent row (1 x C x H x W), in both memories.
  Shape row_shape() const;
  // Throws CheckError on any audit violation, including a non-monotone
  // traffic ledger (totals must never decrease across steps).
  void audit_step();
  ChameleonConfig cfg_;
  PreferenceTracker prefs_;
  ShortTermMemory st_;
  LongTermMemory lt_;
  int64_t step_ = 0;
  // LT burst staging: every h batches one DMA burst fetches
  // h * lt_replay_per_batch samples; they are consumed iteratively,
  // lt_replay_per_batch per subsequent batch ("iterative mini-batch
  // concatenation", paper Sec. IV-A). One off-chip transaction per burst.
  // Staged as slot refs, not deep copies: LT slots are stable between
  // update_from calls (insert only appends or overwrites in place), so the
  // consume path re-gathers the entry's latent row fresh each step instead
  // of snapshotting h * lt_replay_per_batch tensors per burst.
  std::vector<LongTermMemory::SlotRef> staged_refs_;
  size_t staged_pos_ = 0;
  // observe() scratch, reused across steps. After warm-up the steady-state
  // path allocates nothing from the heap: these vectors keep their
  // capacity, Tensor storage recycles through the workspace pool, and
  // kernel scratch lives in the per-thread arenas (test_workspace pins
  // this down with a global allocation counter).
  std::vector<const float*> train_rows_scratch_;
  std::vector<int64_t> train_labels_scratch_;
  // Ledger snapshot from the previous full-checks audit (monotonicity:
  // traffic totals only ever grow).
  double audited_onchip_ = 0;
  double audited_offchip_ = 0;
  double audited_weight_ = 0;
};

}  // namespace cham::core
