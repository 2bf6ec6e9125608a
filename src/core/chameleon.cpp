#include "core/chameleon.h"

namespace cham::core {
namespace {

StSamplingConfig effective_sampling(const ChameleonConfig& cfg) {
  StSamplingConfig s = cfg.st_sampling;
  if (!cfg.use_user_affinity) s.alpha = 0.0f;
  if (!cfg.use_uncertainty) s.beta = 0.0f;
  // Both terms disabled degenerates to uniform selection; Eq. 4 handles the
  // all-zero case by falling back to uniform in ShortTermMemory::update.
  return s;
}

}  // namespace

ChameleonLearner::ChameleonLearner(const LearnerEnv& env,
                                   const ChameleonConfig& cfg, uint64_t seed)
    : HeadLearner(env, seed),
      cfg_(cfg),
      prefs_(env.data_cfg->num_classes, cfg.top_k, cfg.learning_window,
             cfg.rho),
      st_(cfg.st_capacity, effective_sampling(cfg)),
      lt_(cfg.lt_capacity, env.data_cfg->num_classes) {}

void ChameleonLearner::observe(const data::Batch& batch) {
  ++step_;
  const int64_t bsz = static_cast<int64_t>(batch.keys.size());
  const int64_t latent_sz =
      replay::latent_sample_bytes(env_.latent_shape.numel());

  // [line 3] running per-class statistics.
  for (int64_t label : batch.labels) prefs_.update(label);

  // [line 4] latent extraction for the incoming batch. The cache hands out
  // stable references; the training gather reads the rows in place.
  std::vector<const float*>& train_rows = train_rows_scratch_;
  train_rows.clear();
  for (const auto& key : batch.keys) {
    train_rows.push_back(env_.latents->latent(key).data());
  }
  charge_f(bsz);

  // [lines 5-7] training set: every update "sweeps through the complete
  // short-term memory" — the incoming batch is concatenated with the full
  // ST store, plus an LT minibatch every h batches (iterative mini-batch
  // concatenation scheme). One weight update per batch (Algorithm 1 line 7).
  // ST reads come from on-chip SRAM, LT reads from off-chip DRAM. No row is
  // copied: the batch is a list of row pointers into the latent cache, the
  // ST slab and the LT slots, and the head's first layer packs its GEMM
  // panels straight from those rows (nn::GatherBatch).
  std::vector<int64_t>& train_labels = train_labels_scratch_;
  train_labels.assign(batch.labels.begin(), batch.labels.end());
  for (int64_t i = 0; i < st_.size(); ++i) {
    train_rows.push_back(st_.store().row(i));
    train_labels.push_back(st_.store().label(i));
  }
  stats_.charge_onchip_st_replay(static_cast<double>(st_.size() * latent_sz));

  const bool lt_cycle = (step_ % cfg_.lt_period_h) == 0;
  if (lt_cycle && lt_.size() > 0) {
    // One off-chip burst: h batches' worth of LT replay fetched at once.
    // Staged as slot refs — the ledger still charges the full burst here
    // (the hardware model DMAs the samples once), but the host keeps
    // coordinates, not copies, and re-gathers rows at consume time.
    staged_pos_ = 0;
    staged_refs_ = lt_.sample_refs(
        cfg_.lt_period_h * cfg_.lt_replay_per_batch, rng_);
    stats_.charge_offchip_lt_burst(static_cast<double>(
        static_cast<int64_t>(staged_refs_.size()) * latent_sz));
  }
  // Consume the staged burst iteratively, lt_replay_per_batch per batch.
  const size_t take = std::min(
      staged_refs_.size() - staged_pos_,
      static_cast<size_t>(cfg_.lt_replay_per_batch));
  for (size_t i = 0; i < take; ++i) {
    const auto e = lt_.entry(staged_refs_[staged_pos_ + i]);
    train_rows.push_back(e.row);
    train_labels.push_back(e.label);
  }
  staged_pos_ += take;

  nn::GatherBatch gb;
  gb.rows = train_rows.data();
  gb.n = static_cast<int64_t>(train_rows.size());
  gb.sample_shape = env_.latent_shape;
  const Tensor logits = train_step(gb, train_labels);
  charge_weight_traffic();

  // [lines 8-10] ST selection. The incoming samples' logits are the first
  // bsz rows of the training logits; Eq. 3 reads them in place (the label
  // span bounds the scoring to those rows — no logits copy). The Eq. 4
  // winner passes through the configured storage precision on its way into
  // the slab (identity for fp32).
  st_.update(std::span<const data::ImageKey>(batch.keys),
             std::span<const int64_t>(batch.labels),
             std::span<const float* const>(train_rows.data(),
                                           static_cast<size_t>(bsz)),
             row_shape(), logits, prefs_, rng_, cfg_.buffer_precision);
  stats_.charge_onchip_st_write(static_cast<double>(latent_sz));

  // [lines 12-14] LT update from ST every h batches. Promotion reads the
  // ST rows in place; the one chosen per class is copied into the LT slab.
  if (lt_cycle && st_.size() > 0) {
    const replay::SlotStore& st = st_.store();
    stats_.charge_onchip_st_promote(
        static_cast<double>(st_.size() * latent_sz));  // ST reads

    if (cfg_.use_prototype_selection) {
      // Eq. 6 scores every prototype and candidate row of the update in
      // one eval-mode forward (the ledger still charges one g forward per
      // row).
      auto score = [this](std::span<const float* const> rows) {
        return cham::ops::softmax(eval_rows(rows));
      };
      // Prototype formation reads each involved class's actual LT entries
      // (class_count, not the full quota — early in a stream classes hold
      // fewer entries than per_class_quota()).
      int64_t proto_entries = 0;
      const int64_t updated =
          lt_.update_from(st, score, rng_, &proto_entries);
      stats_.charge_offchip_proto(
          static_cast<double>(proto_entries * latent_sz));
      stats_.charge_offchip_lt_write(static_cast<double>(updated * latent_sz));
    } else {
      // Ablation: promote one random ST row per present class.
      std::unordered_map<int64_t, std::vector<int64_t>> by_class;
      for (int64_t i = 0; i < st.size(); ++i) {
        by_class[st.label(i)].push_back(i);
      }
      for (auto& [cls, cands] : by_class) {
        const int64_t pick = cands[static_cast<size_t>(
            rng_.uniform_int(static_cast<int64_t>(cands.size())))];
        lt_.insert(st.key(pick), cls, st.row_shape(), st.row(pick), rng_);
        stats_.charge_offchip_lt_write(static_cast<double>(latent_sz));
      }
    }
  }

  stats_.images += bsz;

  // Full-checks tier: structural audit of every replay component plus ledger
  // monotonicity, once per processed batch. Compiled out below
  // -DCHAM_CHECKS=full.
  CHAM_AUDIT(audit_step());
}

util::AuditReport ChameleonLearner::check_invariants() const {
  util::AuditReport report;
  for (auto& sub : {st_.check_invariants(), lt_.check_invariants(),
                    prefs_.check_invariants(), stats_.check_invariants()}) {
    for (const auto& v : sub.violations) report.fail(v);
  }
  return report;
}

void ChameleonLearner::audit_step() {
  util::AuditReport report = check_invariants();
  if (stats_.onchip_bytes < audited_onchip_ ||
      stats_.offchip_bytes < audited_offchip_ ||
      stats_.weight_bytes < audited_weight_) {
    report.fail("OpStats: traffic ledger decreased between steps");
  }
  audited_onchip_ = stats_.onchip_bytes;
  audited_offchip_ = stats_.offchip_bytes;
  audited_weight_ = stats_.weight_bytes;
  util::throw_if_violations("ChameleonLearner", report);
}

Shape ChameleonLearner::row_shape() const {
  return Shape{1, env_.latent_shape[0], env_.latent_shape[1],
               env_.latent_shape[2]};
}

int64_t ChameleonLearner::st_bytes() const {
  return st_.capacity() *
         (quant::storage_bytes(cfg_.buffer_precision,
                               env_.latent_shape.numel()) +
          replay::kBytesPerLabel);
}

int64_t ChameleonLearner::lt_bytes() const {
  return lt_.capacity() *
         (quant::storage_bytes(cfg_.buffer_precision,
                               env_.latent_shape.numel()) +
          replay::kBytesPerLabel);
}

int64_t ChameleonLearner::memory_overhead_bytes() const {
  return st_bytes() + lt_bytes();
}

}  // namespace cham::core
