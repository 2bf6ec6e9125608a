// Base class for learners that train a MobileNet head g over frozen latents.
// Owns the head, the optimiser, prediction, and the MAC/byte accounting
// helpers shared by Chameleon and the replay baselines.
#pragma once

#include <span>

#include "core/learner.h"
#include "nn/loss.h"
#include "nn/mobilenet.h"
#include "nn/sgd.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace cham::core {

class HeadLearner : public ContinualLearner {
 public:
  HeadLearner(const LearnerEnv& env, uint64_t seed)
      : env_(env),
        rng_(seed),
        g_(env.head_factory()),
        opt_(g_->params(), env.lr),
        layer_params_(g_->param_offsets()),
        g_fwd_macs_(g_->macs_per_sample()),
        head_param_count_(count_params()) {
    // Fresh task classifier, seeded by the learner seed so identical seeds
    // give bit-identical runs.
    Rng head_rng(seed * 0x9E3779B97F4A7C15ull + 0xC1A55);
    nn::reinit_classifier(*g_, head_rng);
    // The head trains on frozen latents: nothing consumes dL/dInput at the
    // network boundary, so the first layer's input-gradient GEMM is pure
    // waste. Elide it and account backward MACs per layer (weight grads
    // everywhere + input grads only where a predecessor needs them) instead
    // of the old blanket 2x-forward estimate.
    g_->set_needs_input_grad(false);
    g_bwd_macs_ = g_->backward_macs_per_sample();
  }

  std::vector<int64_t> predict(
      const std::vector<data::ImageKey>& keys) override {
    return predict_batch(std::span<const data::ImageKey>(keys));
  }

  // Argmax predictions for `keys`, evaluated in gathered chunks: the
  // first head layer packs its GEMM panels straight from the cached latent
  // rows (LatentCache hands out stable references), so no stacked copy of
  // the chunk is ever materialised. State- and stats-pure: eval mode
  // touches no weights, BN running stats are frozen, and no MACs are
  // charged (so the serve path never logs predicts, and evicts a session
  // that served only predicts without writing it). Every
  // layer treats batch rows independently in eval mode, so ANY regrouping
  // of keys across predict_batch calls — merging several requests,
  // splitting one, a per-key loop — yields bit-identical predictions per
  // key. That row-independence is the correctness basis of the serve-path
  // batch planner.
  // Virtual because this is the single funnel every predict path (plain
  // predict(), serve batch plans) flows through — fault-injecting
  // subclasses override here to intercept both.
  virtual std::vector<int64_t> predict_batch(
      std::span<const data::ImageKey> keys) {
    constexpr int64_t kEvalChunk = 256;
    const int64_t total = static_cast<int64_t>(keys.size());
    std::vector<int64_t> out;
    out.reserve(keys.size());
    std::vector<const float*>& rows = rows_scratch_;
    for (int64_t begin = 0; begin < total; begin += kEvalChunk) {
      const int64_t end = std::min(total, begin + kEvalChunk);
      rows.clear();
      for (int64_t i = begin; i < end; ++i) {
        rows.push_back(
            env_.latents->latent(keys[static_cast<size_t>(i)]).data());
      }
      nn::GatherBatch gb;
      gb.rows = rows.data();
      gb.n = end - begin;
      gb.sample_shape = env_.latent_shape;
      const Tensor logits = g_->forward_gather(gb, /*train=*/false);
      for (int64_t i = 0; i < end - begin; ++i) {
        out.push_back(cham::ops::argmax(logits.row(i)));
      }
    }
    return out;
  }

  nn::Sequential& head() { return *g_; }
  int64_t g_fwd_macs() const { return g_fwd_macs_; }
  // Exact per-sample backward MACs after first-layer dInput elision (set in
  // the constructor; always < 2x forward for a multi-layer head).
  int64_t g_bwd_macs() const { return g_bwd_macs_; }

 protected:
  // One SGD step of cross-entropy on the rows named by `gb` (replay slab
  // rows, cached incoming latents, staged LT rows) — never stacked into a
  // dense batch tensor; returns the logits computed during the forward
  // pass (train mode). Also charges g MACs. The caller keeps gb.rows and
  // the rows themselves valid until this returns (the train forward
  // caches the row pointers for backward).
  //
  // Each layer's update is applied as soon as its own backward returns:
  // the backward binds zeroed gradients from the workspace pool, the hook
  // steps that layer's params and releases them, and only then does the
  // previous layer's backward run. At most one layer's gradients are alive
  // at a time and dW is still in cache when the update reads it; per
  // element the arithmetic is that of zero_grad, a whole backward and one
  // whole-model step.
  Tensor train_step(const nn::GatherBatch& gb,
                    std::span<const int64_t> labels) {
    Tensor logits = g_->forward_gather(gb, /*train=*/true);
    // Full-checks tier: scan the layer output and loss gradient at the
    // train-step boundary (Eq. 3 consumes these logits; a NaN here corrupts
    // both the weights and the ST sampling probabilities downstream).
    CHAM_CHECK_FINITE(logits.span(), "head logits");
    auto loss = nn::softmax_cross_entropy(logits, labels);
    CHAM_CHECK_FINITE(loss.grad.span(), "loss gradient");
    g_->backward(loss.grad, [this](int64_t layer) {
      const auto i = static_cast<size_t>(layer);
      opt_.step(layer_params_[i], layer_params_[i + 1]);
    });
    charge_g(gb.n);
    return logits;
  }

  // Eval-mode logits for latent rows gathered by pointer (each row one
  // latent of env_.latent_shape), charging forward MACs per row.
  Tensor eval_rows(std::span<const float* const> rows) {
    nn::GatherBatch gb;
    gb.rows = rows.data();
    gb.n = static_cast<int64_t>(rows.size());
    gb.sample_shape = env_.latent_shape;
    stats_.g_fwd_macs += static_cast<double>(g_fwd_macs_ * gb.n);
    return g_->forward_gather(gb, /*train=*/false);
  }

  // Accounting helpers -----------------------------------------------------
  void charge_g(int64_t samples) {
    stats_.g_fwd_macs += static_cast<double>(g_fwd_macs_ * samples);
    // Exact backward model: weight gradients everywhere, input gradients
    // only for layers whose predecessor consumes them — the first layer's
    // dInput GEMM is elided (set_needs_input_grad(false) in the ctor), so
    // this is strictly below the old 2x-forward estimate.
    stats_.g_bwd_macs += static_cast<double>(g_bwd_macs_ * samples);
  }
  void charge_f(int64_t samples) {
    stats_.f_fwd_macs += static_cast<double>(env_.f_fwd_macs * samples);
  }
  void charge_weight_traffic() {
    // One read of the head parameters per optimisation step.
    stats_.weight_bytes += static_cast<double>(head_param_count_) * 4.0;
  }

  LearnerEnv env_;
  Rng rng_;
  std::unique_ptr<nn::Sequential> g_;
  nn::Sgd opt_;
  // Sequential::param_offsets of the head: layer i's params are
  // opt_'s [layer_params_[i], layer_params_[i + 1]).
  std::vector<size_t> layer_params_;
  int64_t g_fwd_macs_;
  int64_t g_bwd_macs_ = 0;
  int64_t head_param_count_;
  // Row-pointer scratch of predict_batch (capacity reused across calls).
  std::vector<const float*> rows_scratch_;

 private:
  int64_t count_params() {
    int64_t n = 0;
    for (nn::Param* p : g_->params()) n += p->numel();
    return n;
  }
};

}  // namespace cham::core
