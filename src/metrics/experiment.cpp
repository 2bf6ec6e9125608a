#include "metrics/experiment.h"

#include <cstdio>
#include <sstream>

#include "core/checkpoint.h"
#include "nn/loss.h"
#include "nn/model_io.h"
#include "nn/sgd.h"

namespace cham::metrics {

ExperimentConfig core50_experiment() {
  ExperimentConfig cfg;
  cfg.data = data::core50_config();
  cfg.stream = data::StreamConfig{};
  cfg.model.num_classes = cfg.data.num_classes;
  return cfg;
}

ExperimentConfig openloris_experiment() {
  ExperimentConfig cfg;
  cfg.data = data::openloris_config();
  cfg.stream = data::StreamConfig{};
  cfg.model.num_classes = cfg.data.num_classes;
  return cfg;
}

Experiment::Experiment(ExperimentConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.model.num_classes = cfg_.data.num_classes;
  Rng rng(cfg_.data.seed ^ 0x5EED);
  nn::MobileNetV1 model = nn::build_mobilenet_v1(cfg_.model, rng);
  const int64_t latent_layer = cfg_.model.latent_conv_layer;

  // The pretraining cache stores the UNSPLIT network, so every latent-layer
  // split point shares one backbone pretraining.
  const bool cached = nn::load_params(*model.net, cache_path());

  auto split = nn::split_at_conv_layer(std::move(model), latent_layer);
  f_ = std::move(split.f);
  g_template_ = std::move(split.g);
  latent_shape_ = split.latent_shape;
  f_macs_ = f_->macs_per_sample();

  if (!cached) pretrain();

  nn::freeze_batchnorm_stats(*f_);
  nn::freeze_batchnorm_stats(*g_template_);
  latents_ = std::make_unique<data::LatentCache>(cfg_.data, *f_);
  test_keys_ = data::all_test_keys(cfg_.data);

  // The template's identity in session blobs: a hash of its parameter
  // file bytes, taken once.
  core::ByteBuf raw;
  nn::save_params(*g_template_, raw);
  template_hash_ = core::blob_hash(raw.data(), raw.size());
}

std::string Experiment::cache_path() const {
  std::ostringstream os;
  os << cfg_.cache_dir << "/cham_pretrained_" << cfg_.data.name << "_hw"
     << cfg_.model.input_hw << "_a"
     << static_cast<int>(cfg_.model.width_mult * 100) << "_c"
     << cfg_.model.num_classes << "_d" << cfg_.pretrain_domains << "_p"
     << cfg_.pretrain_num_classes << "_e" << cfg_.pretrain_epochs << "_sh"
     << static_cast<int>(cfg_.data.domain_shift * 100) << "_s"
     << cfg_.data.seed << ".bin";
  return os.str();
}

std::unique_ptr<nn::Sequential> Experiment::join_pretrained() const {
  Rng rng(cfg_.data.seed ^ 0x6EAD);
  nn::MobileNetV1 m = nn::build_mobilenet_v1(cfg_.model, rng);
  auto split = nn::split_at_conv_layer(std::move(m),
                                       cfg_.model.latent_conv_layer);
  nn::copy_params(*f_, *split.f);
  nn::copy_params(*g_template_, *split.g);
  auto full = std::move(split.f);
  full->append(std::move(*split.g));
  return full;
}

void Experiment::pretrain() {
  // Generic pretraining distribution: same renderer, disjoint class
  // appearances (seed offset) and a wider class set than the task, a few
  // canonical domains — the ImageNet stand-in.
  data::DatasetConfig pre = cfg_.data;
  pre.seed = cfg_.data.seed + static_cast<uint64_t>(
                                  cfg_.pretrain_classes_seed_offset);
  pre.num_classes = cfg_.pretrain_num_classes;
  pre.num_domains = cfg_.pretrain_domains;
  pre.train_instances = cfg_.pretrain_instances;

  // A separate full network with a pretraining-sized classifier.
  nn::MobileNetConfig pm = cfg_.model;
  pm.num_classes = pre.num_classes;
  Rng build_rng(pre.seed ^ 0x5EED);
  nn::MobileNetV1 pre_model = nn::build_mobilenet_v1(pm, build_rng);
  auto pre_split = nn::split_at_conv_layer(std::move(pre_model),
                                           cfg_.model.latent_conv_layer);
  nn::Sequential& pf = *pre_split.f;
  nn::Sequential& pg = *pre_split.g;

  std::vector<data::ImageKey> keys;
  for (int64_t d = 0; d < pre.num_domains; ++d) {
    auto dk = data::train_keys_for_domain(pre, d);
    keys.insert(keys.end(), dk.begin(), dk.end());
  }

  std::vector<nn::Param*> params = pf.params();
  for (nn::Param* p : pg.params()) params.push_back(p);
  nn::Sgd opt(params, cfg_.pretrain_lr, /*momentum=*/0.9f);

  Rng rng(pre.seed ^ 0x77);
  std::vector<int64_t> order(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) order[i] = static_cast<int64_t>(i);

  for (int64_t epoch = 0; epoch < cfg_.pretrain_epochs; ++epoch) {
    rng.shuffle(order);
    for (size_t start = 0; start < order.size();
         start += static_cast<size_t>(cfg_.pretrain_batch)) {
      const size_t end = std::min(
          order.size(), start + static_cast<size_t>(cfg_.pretrain_batch));
      std::vector<data::ImageKey> chunk;
      std::vector<int64_t> labels;
      for (size_t i = start; i < end; ++i) {
        const auto& k = keys[static_cast<size_t>(order[i])];
        chunk.push_back(k);
        labels.push_back(k.class_id);
      }
      const Tensor x = data::synthesize_batch(pre, chunk);
      opt.zero_grad();
      const Tensor z = pf.forward(x, /*train=*/true);
      Tensor logits = pg.forward(z, /*train=*/true);
      auto loss = nn::softmax_cross_entropy(logits, labels);
      const Tensor gz = pg.backward(loss.grad);
      pf.backward(gz);
      opt.step();
    }
  }

  // Transfer everything but the classifier into the task-sized pipeline,
  // then persist the rejoined full network (split-point independent).
  nn::copy_params(pf, *f_);
  nn::copy_params_except_classifier(pg, *g_template_);
  nn::save_params(*join_pretrained(), cache_path());
}

core::LearnerEnv Experiment::env() {
  core::LearnerEnv e;
  e.data_cfg = &cfg_.data;
  e.latents = latents_.get();
  e.latent_shape = latent_shape_;
  e.f_fwd_macs = f_macs_;
  e.lr = cfg_.learner_lr;
  e.head_template = g_template_.get();
  e.template_hash = template_hash_;
  // Learners re-initialise the classifier themselves, seeded by their own
  // learner seed (HeadLearner / FullNetLearner constructors).
  e.head_factory = [this]() {
    // Skip-init build: every parameter (and BN running stat) is overwritten
    // by copy_params below, so the He draws would be dead work — and this
    // factory runs on every serve-path session create AND restore, where
    // the draw loop used to dominate materialisation cost.
    Rng rng(cfg_.data.seed ^ 0x6EAD);
    nn::MobileNetV1 m =
        nn::build_mobilenet_v1(cfg_.model, rng, /*init_weights=*/false);
    auto split = nn::split_at_conv_layer(std::move(m),
                                         cfg_.model.latent_conv_layer);
    nn::copy_params(*g_template_, *split.g);
    nn::freeze_batchnorm_stats(*split.g);
    return std::move(split.g);
  };
  e.full_net_factory = [this]() {
    auto full = join_pretrained();
    // Full-network online training at batch size 10: running BN statistics
    // stay at their pretrained values (the standard small-batch practice).
    nn::freeze_batchnorm_stats(*full);
    return full;
  };
  e.net_fwd_macs = f_macs_ + g_template_->macs_per_sample();
  return e;
}

void Experiment::run(core::ContinualLearner& learner,
                     const data::DomainIncrementalStream& stream) {
  run(learner, stream.batches());
}

void Experiment::run(core::ContinualLearner& learner,
                     const std::vector<data::Batch>& batches) {
  for (const auto& b : batches) learner.observe(b);
}

AccuracyReport Experiment::evaluate(core::ContinualLearner& learner) {
  return metrics::evaluate(learner, test_keys_);
}

void Experiment::warm_latents(const data::DomainIncrementalStream& stream) {
  warm_latents(stream.batches());
}

void Experiment::warm_latents(const std::vector<data::Batch>& batches) {
  std::vector<data::ImageKey> keys = test_keys_;
  for (const auto& b : batches) {
    keys.insert(keys.end(), b.keys.begin(), b.keys.end());
  }
  latents_->warm(keys);
}

}  // namespace cham::metrics
