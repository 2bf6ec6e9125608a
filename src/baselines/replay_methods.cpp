#include "baselines/replay_methods.h"

#include <cmath>

#include "nn/layers.h"

namespace cham::baselines {
namespace {

int64_t raw_bytes(const core::LearnerEnv& env) {
  return replay::er_sample_bytes(3, env.data_cfg->image_hw);
}

}  // namespace

// --------------------------------------------------------------------- ER

void ErLearner::observe(const data::Batch& batch) {
  const int64_t bsz = static_cast<int64_t>(batch.keys.size());

  std::vector<data::ImageKey> train_keys = batch.keys;
  std::vector<int64_t> labels = batch.labels;

  // Replay minibatch: raw images from DRAM through the full network.
  const auto replay_idx = buffer_.sample_indices(replay_minibatch_, rng_);
  for (int64_t i : replay_idx) {
    const auto& s = buffer_.item(i);
    train_keys.push_back(s.key);
    labels.push_back(s.label);
  }
  stats_.offchip_bytes += static_cast<double>(
      static_cast<int64_t>(replay_idx.size()) * raw_bytes(env_));

  const Tensor x = data::synthesize_batch(*env_.data_cfg, train_keys);
  train_step(x, labels);
  charge_weight_traffic();

  // Reservoir insertion of every incoming sample (raw image write).
  for (int64_t i = 0; i < bsz; ++i) {
    replay::ReplaySample s;
    s.key = batch.keys[static_cast<size_t>(i)];
    s.label = batch.labels[static_cast<size_t>(i)];
    if (buffer_.reservoir_add(std::move(s), rng_) >= 0) {
      stats_.offchip_bytes += static_cast<double>(raw_bytes(env_));
    }
  }
  stats_.images += bsz;
}

// -------------------------------------------------------------------- DER

void DerLearner::observe(const data::Batch& batch) {
  const int64_t bsz = static_cast<int64_t>(batch.keys.size());
  const int64_t classes = env_.data_cfg->num_classes;

  // CE on the incoming batch. The two loss terms are normalised over the
  // COMBINED sample count so the effective step size matches a single
  // concatenated pass (otherwise DER takes 2x-sized steps vs ER and
  // destabilises at the online learning rate).
  const auto replay_idx = buffer_.sample_indices(replay_minibatch_, rng_);
  const float ce_share =
      static_cast<float>(bsz) /
      static_cast<float>(bsz + static_cast<int64_t>(replay_idx.size()));

  opt_.zero_grad();
  const Tensor x = data::synthesize_batch(*env_.data_cfg, batch.keys);
  Tensor logits = net_->forward(x, /*train=*/true);
  auto ce = nn::softmax_cross_entropy(logits, batch.labels);
  ce.grad *= ce_share;
  net_->backward(ce.grad);
  charge_net(bsz);

  // Dark-knowledge MSE on replayed logits.
  if (!replay_idx.empty()) {
    std::vector<data::ImageKey> rkeys;
    Tensor targets({static_cast<int64_t>(replay_idx.size()), classes});
    for (size_t i = 0; i < replay_idx.size(); ++i) {
      const auto& s = buffer_.item(replay_idx[i]);
      rkeys.push_back(s.key);
      std::copy(s.logits.data(), s.logits.data() + classes,
                targets.data() + static_cast<int64_t>(i) * classes);
    }
    stats_.offchip_bytes += static_cast<double>(
        static_cast<int64_t>(replay_idx.size()) *
        (raw_bytes(env_) + replay::logits_bytes(classes)));

    const Tensor xr = data::synthesize_batch(*env_.data_cfg, rkeys);
    Tensor rlogits = net_->forward(xr, /*train=*/true);
    auto dark = nn::mse(rlogits, targets);
    dark.grad *= alpha_ * (1.0f - ce_share);
    net_->backward(dark.grad);
    charge_net(static_cast<int64_t>(replay_idx.size()));
  }
  opt_.step();
  charge_weight_traffic();

  // Insert incoming samples with their current logits.
  for (int64_t i = 0; i < bsz; ++i) {
    replay::ReplaySample s;
    s.key = batch.keys[static_cast<size_t>(i)];
    s.label = batch.labels[static_cast<size_t>(i)];
    s.logits = Tensor({classes});
    std::copy(logits.data() + i * classes, logits.data() + (i + 1) * classes,
              s.logits.data());
    if (buffer_.reservoir_add(std::move(s), rng_) >= 0) {
      stats_.offchip_bytes += static_cast<double>(
          raw_bytes(env_) + replay::logits_bytes(classes));
    }
  }
  stats_.images += bsz;
}

// -------------------------------------------------------------------- GSS

int64_t GssLearner::final_feature_dim() const {
  // The input width of the final classifier.
  auto& net = const_cast<nn::Sequential&>(*net_);
  for (int64_t i = net.size() - 1; i >= 0; --i) {
    if (auto* fc = dynamic_cast<nn::Linear*>(&net.layer(i))) {
      return fc->in_dim();
    }
  }
  return env_.latent_shape[0];
}

double GssLearner::cosine(std::span<const float> a, std::span<const float> b) {
  double dot = 0, na = 0, nb = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += double(a[i]) * double(b[i]);
    na += double(a[i]) * double(a[i]);
    nb += double(b[i]) * double(b[i]);
  }
  if (na <= 0 || nb <= 0) return 0;
  return dot / std::sqrt(na * nb);
}

GssLearner::GssItem GssLearner::make_item(const data::ImageKey& key,
                                          int64_t label) {
  GssItem item;
  item.sample.key = key;
  item.sample.label = label;
  const Tensor x = data::synthesize_batch(*env_.data_cfg, {key});
  const Tensor logits = eval_logits(x);
  const auto probs = cham::ops::softmax_row(logits.row(0));
  item.grad_class.assign(probs.begin(), probs.end());
  item.grad_class[static_cast<size_t>(label)] -= 1.0f;
  // Final pooled feature: forward through all but the classifier. Re-run
  // the pipeline up to the penultimate layer.
  Tensor h = x;
  for (int64_t i = 0; i < net_->size() - 1; ++i) {
    h = net_->layer(i).forward(h, /*train=*/false);
  }
  item.grad_feature.assign(h.data(), h.data() + h.numel());
  stats_.f_fwd_macs += static_cast<double>(net_fwd_macs_);
  return item;
}

double GssLearner::max_similarity(const GssItem& item,
                                  const std::vector<int64_t>& subset) const {
  double best = -1;
  for (int64_t i : subset) {
    const GssItem& o = items_[static_cast<size_t>(i)];
    const double sim = cosine(item.grad_class, o.grad_class) *
                       cosine(item.grad_feature, o.grad_feature);
    best = std::max(best, sim);
  }
  return best;
}

void GssLearner::observe(const data::Batch& batch) {
  const int64_t bsz = static_cast<int64_t>(batch.keys.size());

  std::vector<data::ImageKey> train_keys = batch.keys;
  std::vector<int64_t> labels = batch.labels;
  std::vector<int64_t> replay_idx = rng_.sample_without_replacement(
      static_cast<int64_t>(items_.size()),
      std::min<int64_t>(replay_minibatch_,
                        static_cast<int64_t>(items_.size())));
  const int64_t grad_dim =
      env_.data_cfg->num_classes * final_feature_dim() +
      env_.data_cfg->num_classes;
  for (int64_t i : replay_idx) {
    const auto& s = items_[static_cast<size_t>(i)].sample;
    train_keys.push_back(s.key);
    labels.push_back(s.label);
  }
  stats_.offchip_bytes += static_cast<double>(
      static_cast<int64_t>(replay_idx.size()) * raw_bytes(env_));

  const Tensor x = data::synthesize_batch(*env_.data_cfg, train_keys);
  train_step(x, labels);
  charge_weight_traffic();

  // Gradient-based greedy selection per incoming sample.
  for (int64_t i = 0; i < bsz; ++i) {
    GssItem item = make_item(batch.keys[static_cast<size_t>(i)],
                             batch.labels[static_cast<size_t>(i)]);
    if (static_cast<int64_t>(items_.size()) < capacity_) {
      if (!items_.empty()) {
        const auto subset = rng_.sample_without_replacement(
            static_cast<int64_t>(items_.size()),
            std::min<int64_t>(similarity_subset_,
                              static_cast<int64_t>(items_.size())));
        item.score = std::max(0.0, max_similarity(item, subset)) + 0.01;
      }
      items_.push_back(std::move(item));
      stats_.offchip_bytes += static_cast<double>(
          raw_bytes(env_) + grad_dim * replay::kBytesPerFloat);
      continue;
    }
    const auto subset = rng_.sample_without_replacement(
        static_cast<int64_t>(items_.size()),
        std::min<int64_t>(similarity_subset_,
                          static_cast<int64_t>(items_.size())));
    const double new_score =
        std::max(0.0, max_similarity(item, subset)) + 0.01;
    // Victim sampled proportionally to its similarity score: redundant
    // entries are evicted first. Replace only if the newcomer is more
    // gradient-diverse than the victim.
    std::vector<double> weights;
    weights.reserve(items_.size());
    for (const auto& it : items_) weights.push_back(it.score);
    const int64_t victim = rng_.sample_weighted(weights);
    if (victim >= 0 && new_score < items_[static_cast<size_t>(victim)].score) {
      item.score = new_score;
      items_[static_cast<size_t>(victim)] = std::move(item);
      stats_.offchip_bytes += static_cast<double>(
          raw_bytes(env_) + grad_dim * replay::kBytesPerFloat);
    }
  }
  stats_.images += bsz;
}

// ---------------------------------------------------------- Latent Replay

void LatentReplayLearner::observe(const data::Batch& batch) {
  const int64_t bsz = static_cast<int64_t>(batch.keys.size());
  const int64_t latent_sz =
      replay::latent_sample_bytes(env_.latent_shape.numel());

  // The batch is a list of row pointers into the latent cache and the
  // replay buffer; the head's first layer packs its GEMM panels straight
  // from those rows. Nothing writes the buffer before the step returns.
  std::vector<const float*> rows;
  std::vector<int64_t> labels = batch.labels;
  for (const auto& key : batch.keys) {
    rows.push_back(env_.latents->latent(key).data());
  }
  charge_f(bsz);

  // Replay latents live in the unified off-chip buffer.
  const auto replay_idx = buffer_.sample_indices(replay_minibatch_, rng_);
  for (int64_t i : replay_idx) {
    const auto& s = buffer_.item(i);
    rows.push_back(s.latent.data());
    labels.push_back(s.label);
  }
  stats_.offchip_bytes += static_cast<double>(
      static_cast<int64_t>(replay_idx.size()) * latent_sz);

  train_step(nn::GatherBatch{rows.data(), static_cast<int64_t>(rows.size()),
                             env_.latent_shape},
             labels);
  charge_weight_traffic();

  // Reservoir insertion of incoming latents (off-chip writes).
  for (int64_t i = 0; i < bsz; ++i) {
    replay::ReplaySample s;
    s.key = batch.keys[static_cast<size_t>(i)];
    s.label = batch.labels[static_cast<size_t>(i)];
    s.latent = env_.latents->latent(s.key);
    if (buffer_.reservoir_add(std::move(s), rng_) >= 0) {
      stats_.offchip_bytes += static_cast<double>(latent_sz);
    }
  }
  stats_.images += bsz;
}

}  // namespace cham::baselines
