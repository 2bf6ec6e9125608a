// Common interface for every continual learner (Chameleon and all baselines)
// plus the shared context they train in.
//
// All learners share one frozen backbone f through the LatentCache and own a
// private trainable head g. Accuracy (Table I), replay-memory bytes (Table I)
// and hardware cost (Table II) all derive from this one interface.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/op_stats.h"
#include "data/latent_cache.h"
#include "data/stream.h"
#include "nn/sequential.h"

namespace cham::core {

// Everything a learner needs from the environment. The head_factory builds a
// fresh trainable head g initialised with the pretrained weights; each
// learner owns its own copy so methods never interfere.
struct LearnerEnv {
  const data::DatasetConfig* data_cfg = nullptr;
  data::LatentCache* latents = nullptr;
  std::function<std::unique_ptr<nn::Sequential>()> head_factory;
  // Full pretrained network (f and g concatenated) for methods that train
  // every layer (ER, DER, GSS, EWC++, LwF, Finetune, Joint — as published).
  std::function<std::unique_ptr<nn::Sequential>()> full_net_factory;
  Shape latent_shape;          // C,H,W per sample
  int64_t f_fwd_macs = 0;      // backbone MACs per image
  int64_t net_fwd_macs = 0;    // full network MACs per image
  float lr = 0.001f;           // paper setting (SGD)
  // The pretrained head head_factory clones, shared by every learner and
  // never copied: session blobs store each head tensor relative to it
  // (core/checkpoint.h), and template_hash names it in their header. With
  // no template (hash 0) blobs encode against zeros.
  const nn::Sequential* head_template = nullptr;
  uint64_t template_hash = 0;
};

class ContinualLearner {
 public:
  virtual ~ContinualLearner() = default;

  // One online step on an incoming mini-batch (paper: batch size 10,
  // single pass).
  virtual void observe(const data::Batch& batch) = 0;

  // Predicted class for each key (evaluation path; uses the shared frozen
  // backbone via the latent cache).
  virtual std::vector<int64_t> predict(
      const std::vector<data::ImageKey>& keys) = 0;

  virtual std::string name() const = 0;

  // Replay / method-state overhead in bytes (Table I column).
  virtual int64_t memory_overhead_bytes() const = 0;

  const OpStats& stats() const { return stats_; }

 protected:
  OpStats stats_;
};

}  // namespace cham::core
