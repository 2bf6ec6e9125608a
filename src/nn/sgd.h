// SGD with momentum and weight decay, matching the paper's optimiser
// (SGD, lr = 0.001).
#pragma once

#include <string>
#include <vector>

#include "nn/layer.h"
#include "util/check.h"

namespace cham::nn {

class Sgd {
 public:
  Sgd(std::vector<Param*> params, float lr, float momentum = 0.0f,
      float weight_decay = 0.0f)
      : params_(std::move(params)),
        lr_(lr),
        momentum_(momentum),
        weight_decay_(weight_decay) {
    if (momentum_ > 0.0f) {
      velocities_.reserve(params_.size());
      for (Param* p : params_) velocities_.emplace_back(p->value.shape());
    }
  }

  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }

  // Binds every parameter's gradient, zero-filled (Param::zero_grad).
  void zero_grad() {
    for (Param* p : params_) p->zero_grad();
  }

  // Applies the gradients of params [begin, end) (in constructor order) and
  // releases each back to the workspace pool, so no gradient outlives the
  // step that made it. A parameter no backward reached steps on a zero
  // gradient, as it would have after zero_grad().
  //
  // w -= lr * (g + wd * w), through the momentum buffer v = mu * v + (...)
  // when momentum is on. The momentum and weight-decay branches are taken
  // once per parameter, not per element; every element sees the same
  // expression, in the same order, as the per-element formula.
  void step(size_t begin, size_t end) {
    CHAM_CHECK(begin <= end && end <= params_.size(),
               "Sgd::step range [" + std::to_string(begin) + ", " +
                   std::to_string(end) + ") of " +
                   std::to_string(params_.size()) + " params");
    const float lr = lr_, mu = momentum_, wd = weight_decay_;
    for (size_t i = begin; i < end; ++i) {
      Param* p = params_[i];
      float* CHAM_RESTRICT w = p->value.data();
      const float* CHAM_RESTRICT g = p->grad_data();
      // Full-checks tier: reject non-finite gradients before they reach the
      // weights (a NaN here corrupts the head silently, not loudly).
      CHAM_CHECK_FINITE(p->grad.span(), "SGD gradient");
      const int64_t n = p->numel();
      if (mu > 0.0f) {
        float* CHAM_RESTRICT v = velocities_[i].data();
        if (wd > 0.0f) {
          for (int64_t j = 0; j < n; ++j) {
            const float gj = g[j] + wd * w[j];
            v[j] = mu * v[j] + gj;
            w[j] -= lr * v[j];
          }
        } else {
          for (int64_t j = 0; j < n; ++j) {
            v[j] = mu * v[j] + g[j];
            w[j] -= lr * v[j];
          }
        }
      } else if (wd > 0.0f) {
        for (int64_t j = 0; j < n; ++j) w[j] -= lr * (g[j] + wd * w[j]);
      } else {
        for (int64_t j = 0; j < n; ++j) w[j] -= lr * g[j];
      }
      p->release_grad();
    }
  }
  void step() { step(0, params_.size()); }

 private:
  std::vector<Param*> params_;
  float lr_, momentum_, weight_decay_;
  std::vector<Tensor> velocities_;
};

}  // namespace cham::nn
