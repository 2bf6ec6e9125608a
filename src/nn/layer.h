// Layer abstraction: explicit forward/backward with cached activations.
//
// The framework is deliberately graph-free: MobileNetV1 is a straight
// pipeline, so a Sequential of Layers with manual backward is simpler and
// faster than tape-based autograd, and makes per-layer MAC/byte accounting
// (needed by the hardware cost models) exact.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "util/check.h"

namespace cham::nn {

// A trainable parameter: value plus accumulated gradient. A gradient exists
// only within a step: `grad` is empty at rest, is bound to a zero-filled
// buffer of the value's shape from the workspace pool by zero_grad() or by
// the first backward that accumulates into it, and is released back to the
// pool by Sgd::step once applied. A resident head therefore holds its
// weights and no gradient copy.
struct Param {
  Tensor value;
  Tensor grad;

  explicit Param(Shape shape) : value(shape) {}
  void zero_grad() {
    if (grad.empty()) {
      grad = Tensor(value.shape());
    } else {
      grad.fill(0.0f);
    }
  }
  // The gradient a backward accumulates into: the bound one, or a zeroed
  // one bound now, so a backward with no zero_grad before it still
  // accumulates from zero.
  float* grad_data() {
    if (grad.empty()) grad = Tensor(value.shape());
    return grad.data();
  }
  void release_grad() { grad = Tensor(); }
  int64_t numel() const { return value.numel(); }
};

// A batch whose samples are gathered through per-sample base pointers
// instead of living in one contiguous tensor: sample i is the
// sample_shape.numel() contiguous floats at rows[i]. This is the zero-copy
// replay interface — rows point straight into ST slab slots, LT entries,
// and incoming latent-cache storage; nothing is stacked. n may be 0 (rows
// is then never read).
//
// Ownership: the caller owns both the pointer array and the gathered
// storage, and must keep every row valid until the consuming call returns —
// and, for a train-mode forward, until the matching backward() completes
// (layers cache the row pointers, not a copy of the data, and that
// backward drops them).
struct GatherBatch {
  const float* const* rows = nullptr;
  int64_t n = 0;
  Shape sample_shape;  // per-sample shape, e.g. (C,H,W) or (D)

  int64_t sample_numel() const { return sample_shape.numel(); }
};

// Points `table` at the samples of x (batch axis first) and returns the
// gather batch over them; table's capacity is reused across calls.
inline GatherBatch rows_of(const Tensor& x, std::vector<const float*>& table) {
  CHAM_CHECK(x.rank() >= 1, "batched input " + x.shape().to_string());
  GatherBatch gb;
  gb.n = x.dim(0);
  gb.sample_shape = Shape(x.shape().dims().subspan(1));
  const int64_t numel = gb.sample_numel();
  table.resize(static_cast<size_t>(gb.n));
  for (int64_t i = 0; i < gb.n; ++i) {
    table[static_cast<size_t>(i)] = x.data() + i * numel;
  }
  gb.rows = table.data();
  return gb;
}

class Layer {
 public:
  virtual ~Layer() = default;

  // x is NCHW (rank 4) or NxD (rank 2) depending on the layer.
  // `train` selects batch-statistics / caching behaviour.
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  // grad_out has the shape of the last forward output; returns gradient with
  // respect to the last forward input and accumulates parameter grads.
  // When needs_input_grad() is false the input-gradient computation is
  // skipped and an empty Tensor is returned (parameter grads are still
  // accumulated, in the same order — bit-identical to the unelided pass).
  // One backward per train-mode forward: backward consumes the state that
  // forward cached (x-hat, ReLU mask, input copy, row pointers) and
  // releases it on return, so activations live only inside a train step
  // and a second backward without a train forward in between fails its
  // CHAM_CHECK.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  // Forward over a gathered batch. Only a layer that can start a head
  // accepts one: the MAC-bearing layers derive from GatherLayer, whose
  // forward_gather is their one forward body, and Sequential hands the
  // batch to its first layer. A head is cut at a unit end (after a ReLU),
  // so it always starts with a GatherLayer; reaching this default is a
  // caller bug.
  virtual Tensor forward_gather(const GatherBatch& /*gb*/, bool /*train*/) {
    CHAM_CHECK(false, name() + " cannot start a head: forward_gather needs "
                          "a layer that reads rows by pointer");
    return {};
  }

  virtual std::vector<Param*> params() { return {}; }
  virtual std::string name() const = 0;

  // Multiply-accumulate operations per sample (forward pass); 0 for
  // activations/reshapes. Known statically because geometry is fixed at
  // construction time.
  virtual int64_t macs_per_sample() const { return 0; }

  // MACs per sample of the backward pass under the current
  // needs_input_grad setting: dW plus dInput each mirror the forward
  // contraction, so a MAC-bearing layer costs 2x forward — 1x once the
  // input gradient is elided. This is the exact model charge_g bills
  // against the OpStats ledger.
  virtual int64_t backward_macs_per_sample() const {
    return macs_per_sample() * (needs_input_grad_ ? 2 : 1);
  }

  // First-layer dInput elision: when the layer's input is frozen (backbone
  // latents in the replay path), its input gradient is dead compute.
  // Containers forward the setting to their first layer.
  virtual void set_needs_input_grad(bool v) { needs_input_grad_ = v; }
  bool needs_input_grad() const { return needs_input_grad_; }

  // Number of scalar parameters.
  int64_t param_count() {
    int64_t n = 0;
    for (Param* p : params()) n += p->numel();
    return n;
  }

  // True for layers that count toward MobileNetV1's "27 conv layers"
  // numbering used by the paper's latent-layer index.
  virtual bool is_conv_like() const { return false; }

 protected:
  bool needs_input_grad_ = true;
};

// A layer whose only forward body is forward_gather, reading each sample
// through its row pointer (Conv2d, DepthwiseConv2d, GlobalAvgPool,
// Linear). The dense forward is an adapter onto it: it points a row table
// at x's samples and runs the same body, so the two entries cannot
// diverge. A train-mode forward_gather caches the caller's row pointers in
// cached_rows_ for backward; in train mode the adapter first copies x into
// cached_input_ and points the rows there, since the caller's tensor may
// be gone by backward(). Each backward opens a ConsumesForward first, so
// the copy goes back to the workspace pool and the row table is cleared
// when it returns.
class GatherLayer : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) final {
    if (!train || !backward_reads_input_) {
      return forward_gather(rows_of(x, row_table_), train);
    }
    cached_input_ = x;
    return forward_gather(rows_of(cached_input_, row_table_), train);
  }

 protected:
  // backward_reads_input = false for layers whose backward needs only the
  // input's shape (GlobalAvgPool): the train-mode adapter then skips the
  // copy into cached_input_.
  explicit GatherLayer(bool backward_reads_input = true)
      : backward_reads_input_(backward_reads_input) {}

  // Releases the train forward's state when the backward that opened it
  // returns or throws: the input copy goes back to the pool, and the row
  // table is emptied but keeps its capacity (it is std-allocated), so the
  // next step's forward allocates nothing for it.
  class ConsumesForward {
   public:
    explicit ConsumesForward(GatherLayer& layer) : layer_(layer) {}
    ~ConsumesForward() {
      layer_.cached_input_ = Tensor();
      layer_.cached_rows_.clear();
    }
    ConsumesForward(const ConsumesForward&) = delete;
    ConsumesForward& operator=(const ConsumesForward&) = delete;

   private:
    GatherLayer& layer_;
  };

  // Rows of the last train-mode forward, read by backward; empty once that
  // backward returns.
  std::vector<const float*> cached_rows_;

 private:
  bool backward_reads_input_;
  Tensor cached_input_;  // the adapter's train-mode copy of x
  std::vector<const float*> row_table_;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace cham::nn
