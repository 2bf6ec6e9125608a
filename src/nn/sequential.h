// Sequential container: the whole network (and each half after the latent
// split) is a straight pipeline of layers.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.h"

namespace cham::nn {

class Sequential : public Layer {
 public:
  Sequential() = default;

  void add(LayerPtr layer) { layers_.push_back(std::move(layer)); }

  Tensor forward(const Tensor& x, bool train) override {
    if (layers_.empty()) return x;
    // The first layer reads the caller's tensor in place; copying x into a
    // local first was a full batch deep copy per forward.
    Tensor cur = layers_.front()->forward(x, train);
    for (size_t i = 1; i < layers_.size(); ++i) {
      cur = layers_[i]->forward(cur, train);
    }
    return cur;
  }

  // Gathered entry: the first layer packs directly from the gathered rows,
  // the rest of the pipeline runs on its dense output as usual. An empty
  // pipeline has no layer to read the rows and fails like a non-gather
  // first layer.
  Tensor forward_gather(const GatherBatch& gb, bool train) override {
    CHAM_CHECK(!layers_.empty(), "empty Sequential cannot start a head");
    Tensor cur = layers_.front()->forward_gather(gb, train);
    for (size_t i = 1; i < layers_.size(); ++i) {
      cur = layers_[i]->forward(cur, train);
    }
    return cur;
  }

  Tensor backward(const Tensor& grad_out) override {
    return backward(grad_out, [](int64_t) {});
  }

  // Backward with a per-layer hook: after_layer(i) runs as soon as layer
  // i's backward has returned, before layer i - 1's starts. No later
  // backward reads layer i's parameters, so the hook may apply and release
  // their gradients there, while they are still in cache.
  template <class AfterLayer>
  Tensor backward(const Tensor& grad_out, AfterLayer&& after_layer) {
    Tensor cur = grad_out;
    for (auto i = static_cast<int64_t>(layers_.size()) - 1; i >= 0; --i) {
      cur = layers_[static_cast<size_t>(i)]->backward(cur);
      after_layer(i);
    }
    // When the first layer elides its input gradient, `cur` is empty here;
    // the pipeline's own caller sees the same contract as a single layer.
    return cur;
  }

  std::vector<Param*> params() override {
    std::vector<Param*> out;
    for (auto& l : layers_) {
      for (Param* p : l->params()) out.push_back(p);
    }
    return out;
  }

  std::string name() const override { return "Sequential"; }

  int64_t macs_per_sample() const override {
    int64_t total = 0;
    for (const auto& l : layers_) total += l->macs_per_sample();
    return total;
  }

  int64_t backward_macs_per_sample() const override {
    int64_t total = 0;
    for (const auto& l : layers_) total += l->backward_macs_per_sample();
    return total;
  }

  // Applies to the pipeline's own input, i.e. the first layer (which may
  // itself be a Sequential — the setting recurses to the real leaf).
  void set_needs_input_grad(bool v) override {
    needs_input_grad_ = v;
    if (!layers_.empty()) layers_.front()->set_needs_input_grad(v);
  }

  int64_t size() const { return static_cast<int64_t>(layers_.size()); }
  Layer& layer(int64_t i) { return *layers_[static_cast<size_t>(i)]; }
  const Layer& layer(int64_t i) const { return *layers_[static_cast<size_t>(i)]; }

  // Moves all layers of `other` to the end of this pipeline (used to
  // re-join a split network).
  void append(Sequential&& other) {
    for (auto& l : other.layers_) layers_.push_back(std::move(l));
    other.layers_.clear();
  }

  // Moves layers [begin, end) into a new Sequential; this container keeps
  // the rest. Used to split a network at the latent layer.
  std::unique_ptr<Sequential> slice(int64_t begin, int64_t end) {
    auto out = std::make_unique<Sequential>();
    for (int64_t i = begin; i < end; ++i) {
      out->add(std::move(layers_[static_cast<size_t>(i)]));
    }
    layers_.erase(layers_.begin() + begin, layers_.begin() + end);
    return out;
  }

  // Where each layer's run of params() starts: layer i owns
  // params()[out[i], out[i + 1]), and out.back() is params().size().
  std::vector<size_t> param_offsets() {
    std::vector<size_t> out{0};
    for (auto& l : layers_) out.push_back(out.back() + l->params().size());
    return out;
  }

 private:
  std::vector<LayerPtr> layers_;
};

}  // namespace cham::nn
