// Concrete layers for MobileNetV1-style CNNs: standard and depthwise
// convolutions, batch normalisation, activations, pooling, linear.
// All convolutions are square-kernel, NCHW, zero-padded.
#pragma once

#include "nn/layer.h"
#include "tensor/im2col.h"

namespace cham::nn {

// Standard convolution lowered to GEMM via im2col (per sample).
class Conv2d : public GatherLayer {
 public:
  // `init=false` skips the He weight draw (leaves weights zero) for nets
  // whose parameters are about to be overwritten by copy_params — the
  // normal-draw loop dominates network construction cost otherwise.
  Conv2d(int64_t in_c, int64_t out_c, int64_t in_h, int64_t in_w,
         int64_t kernel, int64_t stride, int64_t pad, bool bias, Rng& rng,
         bool init = true);

  Tensor forward_gather(const GatherBatch& gb, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  std::string name() const override { return "Conv2d"; }
  int64_t macs_per_sample() const override;
  bool is_conv_like() const override { return true; }

  const ConvGeometry& geometry() const { return geo_; }
  int64_t out_channels() const { return out_c_; }

 private:
  ConvGeometry geo_;
  int64_t out_c_;
  bool has_bias_;
  Param weight_;  // out_c x (in_c*k*k)
  Param bias_;    // out_c, or no storage without a bias
  // Column-pointer scratch of the gathered pointwise forward (capacity is
  // reused across steps, so the steady state allocates nothing).
  std::vector<const float*> colptr_scratch_;
};

// Depthwise convolution: one k x k filter per channel.
class DepthwiseConv2d : public GatherLayer {
 public:
  DepthwiseConv2d(int64_t channels, int64_t in_h, int64_t in_w, int64_t kernel,
                  int64_t stride, int64_t pad, Rng& rng, bool init = true);

  Tensor forward_gather(const GatherBatch& gb, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&weight_}; }
  std::string name() const override { return "DepthwiseConv2d"; }
  int64_t macs_per_sample() const override;
  bool is_conv_like() const override { return true; }

  const ConvGeometry& geometry() const { return geo_; }

 private:
  // One (sample, channel) plane through the tap table.
  void forward_plane(const float* plane, const float* w, float* out) const;
  template <bool kInputGrad>
  void backward_plane(const float* plane, const float* w, const float* go,
                      float* gw, float* gi) const;
  // The same walks over 8-channel lanes, one channel per lane, for the
  // leading channels of a multiple of 8 (AVX-512 builds; elsewhere they
  // cover no channel). Each returns how many channels it covered; the rest
  // take the plane kernels above.
  int64_t forward_lanes(const GatherBatch& gb, float* out) const;
  template <bool kInputGrad>
  int64_t backward_lanes(const float* go, float* gw, float* gi);

  // One in-bounds tap: input-plane offset and weight index.
  struct Tap {
    int32_t in;
    int32_t w;
  };

  ConvGeometry geo_;  // in_c == channels
  Param weight_;      // channels x k x k (stored flat channels x k*k)
  // Valid-tap table of the fixed geometry, built once in the constructor:
  // output pixel o reads taps_[tap_begin_[o] .. tap_begin_[o + 1]), in
  // ascending (kh, kw) order with the taps that fall in the padding
  // dropped. Each output's double accumulation therefore runs over exactly
  // the in-bounds taps, in (kh, kw) order (test_observe_path checks this
  // against a bounds-checked reference loop).
  std::vector<Tap> taps_;
  std::vector<int32_t> tap_begin_;
};

// Batch normalisation over channels of an NCHW tensor.
//
// During continual learning the framework runs BN in eval mode (running
// statistics frozen after pretraining, affine gamma/beta still trainable) —
// standard practice for batch-size-1 on-device training. Train mode computes
// full batch statistics with the exact batch backward.
class BatchNorm2d : public Layer {
 public:
  BatchNorm2d(int64_t channels, float momentum = 0.1f, float eps = 1e-5f);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }
  std::string name() const override { return "BatchNorm2d"; }

  // Freeze running statistics (used when the backbone is frozen).
  void set_track_running_stats(bool track) { track_stats_ = track; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }
  Tensor& mutable_running_mean() { return running_mean_; }
  Tensor& mutable_running_var() { return running_var_; }

 private:
  int64_t channels_;
  float momentum_, eps_;
  bool track_stats_ = true;
  Param gamma_, beta_;
  Tensor running_mean_, running_var_;
  // x-hat of the last train forward, held until its backward consumes it.
  Tensor cached_xhat_;
  Tensor cached_inv_std_;  // per-channel, kept across steps
  bool cached_train_mode_ = false;
  // Backward's per-channel sums of dY and dY * x-hat (capacity reused).
  std::vector<double> sum_g_, sum_gx_;
};

class ReLU : public Layer {
 public:
  explicit ReLU(float clip = 0.0f) : clip_(clip) {}  // clip>0 => ReLU-N
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return clip_ > 0 ? "ReLU6" : "ReLU"; }

 private:
  float clip_;
  // One byte per element recording whether the gradient passes — all the
  // backward needs. Replaces a full deep copy of the input (4x the bytes
  // and a second traversal), recorded during the train forward itself and
  // released by the backward that reads it.
  std::vector<uint8_t, ws::PoolAllocator<uint8_t>> mask_;
};

// Global average pooling: NCHW -> NxC.
class GlobalAvgPool : public GatherLayer {
 public:
  GlobalAvgPool() : GatherLayer(/*backward_reads_input=*/false) {}
  Tensor forward_gather(const GatherBatch& gb, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "GlobalAvgPool"; }

 private:
  Shape cached_in_shape_;  // rank 0 outside a train step
};

// Fully connected layer on NxD inputs.
class Linear : public GatherLayer {
 public:
  Linear(int64_t in_dim, int64_t out_dim, Rng& rng, bool init = true);

  Tensor forward_gather(const GatherBatch& gb, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::string name() const override { return "Linear"; }
  int64_t macs_per_sample() const override { return in_dim_ * out_dim_; }
  bool is_conv_like() const override { return true; }  // counts as FC "layer"

  int64_t in_dim() const { return in_dim_; }
  int64_t out_dim() const { return out_dim_; }

 private:
  int64_t in_dim_, out_dim_;
  Param weight_;  // out x in
  Param bias_;    // out
};

}  // namespace cham::nn
