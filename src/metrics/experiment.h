// Experiment harness shared by benches, examples and integration tests.
//
// Owns the full pipeline the paper's evaluation needs:
//   1. build MobileNetV1 for the dataset and PRETRAIN it on a disjoint
//      synthetic "generic" distribution (the ImageNet-pretraining stand-in;
//      cached on disk so it runs once per configuration),
//   2. split at the latent layer (conv 21/27) into frozen f + head template,
//   3. hand every learner a LearnerEnv with a shared LatentCache over f,
//      a head_factory that clones the pretrained head with a freshly
//      initialised classifier, and that head itself with its hash (session
//      blobs encode head tensors against it),
//   4. drive a learner over a DomainIncrementalStream and evaluate Acc_all.
#pragma once

#include <memory>

#include "core/learner.h"
#include "data/stream.h"
#include "metrics/evaluator.h"
#include "nn/mobilenet.h"

namespace cham::metrics {

struct ExperimentConfig {
  data::DatasetConfig data;
  data::StreamConfig stream;
  nn::MobileNetConfig model;

  // Pretraining (the "ImageNet" stand-in).
  int64_t pretrain_classes_seed_offset = 0xABCD;  // disjoint appearance
  int64_t pretrain_num_classes = 80;  // richer feature diversity than task
  int64_t pretrain_instances = 4;
  // Pretraining spans several domains so the frozen features are domain-
  // robust — the regime the paper's latent methods rely on (SLDA reaches
  // 77% on CORe50 with no replay at all).
  int64_t pretrain_domains = 6;
  int64_t pretrain_epochs = 8;
  float pretrain_lr = 0.02f;
  int64_t pretrain_batch = 16;
  std::string cache_dir = "/tmp";

  float learner_lr = 0.05f;
};

ExperimentConfig core50_experiment();
ExperimentConfig openloris_experiment();

// A prepared environment: frozen backbone + latent cache + head template.
class Experiment {
 public:
  explicit Experiment(ExperimentConfig cfg);

  // Environment for constructing learners. Valid as long as *this lives.
  core::LearnerEnv env();

  const ExperimentConfig& config() const { return cfg_; }
  const Shape& latent_shape() const { return latent_shape_; }
  int64_t f_macs() const { return f_macs_; }
  data::LatentCache& latents() { return *latents_; }
  nn::Sequential& backbone() { return *f_; }
  const nn::Sequential& head_template() const { return *g_template_; }

  // Runs `learner` over `stream` (observe every batch).
  void run(core::ContinualLearner& learner,
           const data::DomainIncrementalStream& stream);
  // Scenario-agnostic variant (Class-IL streams, custom batch lists).
  void run(core::ContinualLearner& learner,
           const std::vector<data::Batch>& batches);

  // Final Acc_all over the full test set.
  AccuracyReport evaluate(core::ContinualLearner& learner);

  // Precomputes latents for a stream + the test set (one pass over f).
  void warm_latents(const data::DomainIncrementalStream& stream);
  void warm_latents(const std::vector<data::Batch>& batches);

 private:
  void pretrain();
  std::string cache_path() const;
  // Fresh full pipeline carrying the pretrained f + g_template weights.
  std::unique_ptr<nn::Sequential> join_pretrained() const;

  ExperimentConfig cfg_;
  std::unique_ptr<nn::Sequential> f_;
  std::unique_ptr<nn::Sequential> g_template_;
  uint64_t template_hash_ = 0;
  Shape latent_shape_;
  int64_t f_macs_ = 0;
  std::unique_ptr<data::LatentCache> latents_;
  std::vector<data::ImageKey> test_keys_;
};

}  // namespace cham::metrics
