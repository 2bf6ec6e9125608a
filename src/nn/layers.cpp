#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/thread_pool.h"
#include "tensor/workspace.h"

#include "util/check.h"

#if defined(CHAM_SIMD_USE_AVX512)
#include <immintrin.h>
#endif

namespace cham::nn {
namespace {

// He-normal initialisation for convolution / linear weights.
void he_init(Tensor& w, int64_t fan_in, Rng& rng) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  for (int64_t i = 0; i < w.numel(); ++i) w[i] = rng.normal_f(0.0f, stddev);
}

// A 1x1 stride-1 unpadded convolution is a plain channel-mixing GEMM: the
// im2col column matrix of such a conv IS the input plane (in_c x pixels),
// so both forward and backward skip the expansion and the scratch matrix.
// MobileNet spends most of its MACs in these pointwise convs.
bool is_pointwise(const ConvGeometry& g) {
  return g.kernel == 1 && g.stride == 1 && g.pad == 0;
}

// The merged pointwise GEMMs work on channel-major panels: panel element
// [c][n * pix + i] is pixel i of channel c of sample n, whose planes start
// at sample(n). These two loops move channels [c0, c1) between the panel
// and the per-sample planes. The head's maps are 2x2 and 1x1 (pix 4 and
// 1): there the body runs sample-outer over a compile-time pixel count,
// so the plane side is one contiguous run and each channel's pixels are a
// fixed-width copy in registers. A copy call per (channel, sample) would
// move 16 or 4 bytes (and GCC turns a runtime-length inner loop into
// exactly that call); other sizes keep it.
template <int64_t kPix, class Sample>
void gather_fixed(const Sample& sample, int64_t batch, int64_t c0, int64_t c1,
                  float* CHAM_RESTRICT panel) {
  const int64_t cols = batch * kPix;
  for (int64_t n = 0; n < batch; ++n) {
    const float* CHAM_RESTRICT src = sample(n);
    for (int64_t c = c0; c < c1; ++c) {
      for (int64_t i = 0; i < kPix; ++i) {
        panel[c * cols + n * kPix + i] = src[c * kPix + i];
      }
    }
  }
}

template <int64_t kPix, class Sample>
void scatter_fixed(const float* CHAM_RESTRICT panel, int64_t batch,
                   int64_t c0, int64_t c1, const Sample& sample) {
  const int64_t cols = batch * kPix;
  for (int64_t n = 0; n < batch; ++n) {
    float* CHAM_RESTRICT dst = sample(n);
    for (int64_t c = c0; c < c1; ++c) {
      for (int64_t i = 0; i < kPix; ++i) {
        dst[c * kPix + i] = panel[c * cols + n * kPix + i];
      }
    }
  }
}

template <class Sample>
void gather_panel(const Sample& sample, int64_t batch, int64_t pix,
                  int64_t c0, int64_t c1, float* CHAM_RESTRICT panel) {
  if (pix == 1) return gather_fixed<1>(sample, batch, c0, c1, panel);
  if (pix == 4) return gather_fixed<4>(sample, batch, c0, c1, panel);
  const int64_t cols = batch * pix;
  for (int64_t c = c0; c < c1; ++c) {
    for (int64_t n = 0; n < batch; ++n) {
      std::memcpy(panel + c * cols + n * pix, sample(n) + c * pix,
                  static_cast<size_t>(pix) * sizeof(float));
    }
  }
}

template <class Sample>
void scatter_panel(const float* CHAM_RESTRICT panel, int64_t batch,
                   int64_t pix, int64_t c0, int64_t c1, const Sample& sample) {
  if (pix == 1) return scatter_fixed<1>(panel, batch, c0, c1, sample);
  if (pix == 4) return scatter_fixed<4>(panel, batch, c0, c1, sample);
  const int64_t cols = batch * pix;
  for (int64_t c = c0; c < c1; ++c) {
    for (int64_t n = 0; n < batch; ++n) {
      std::memcpy(sample(n) + c * pix, panel + c * cols + n * pix,
                  static_cast<size_t>(pix) * sizeof(float));
    }
  }
}

// Backward reads grad_out through raw pointers sized by the last
// train-mode forward (batch) and the fixed output geometry, so any other
// shape would read out of bounds.
void check_grad_shape(const Tensor& grad_out, const Shape& expected,
                      const char* layer) {
  CHAM_CHECK(grad_out.shape() == expected,
             std::string(layer) + " grad " + grad_out.shape().to_string() +
                 " does not match the last train-mode forward's output " +
                 expected.to_string());
}

// Element kernels of the BatchNorm2d and ReLU passes. Each reads its input
// and writes a fresh output in one pass through no-alias pointers, so the
// loops vectorise; every element's expression is fixed, so the walk order
// is invisible in the bits.

// Channels [c0, c1) of an NCHW batch, walked sample-major, then channel,
// then pixel. For the 1x1 maps of a late MobileNet head the innermost run
// is then contiguous across channels; per channel the elements are still
// visited in (sample, pixel) order, which is all a per-channel running sum
// can observe.
struct ChannelBlock {
  int64_t batch, channels, hw, c0, c1;
};

// out = gamma * x-hat + beta, x-hat = (x - mean) * inv_std, also stored to
// xhat when kXhat (train-mode forward).
template <bool kXhat>
void bn_forward_block(const ChannelBlock& b, const float* CHAM_RESTRICT x,
                      const float* CHAM_RESTRICT mean,
                      const float* CHAM_RESTRICT inv_std,
                      const float* CHAM_RESTRICT gamma,
                      const float* CHAM_RESTRICT beta, float* CHAM_RESTRICT out,
                      float* CHAM_RESTRICT xhat) {
  for (int64_t n = 0; n < b.batch; ++n) {
    const int64_t base = n * b.channels * b.hw;
    if (b.hw == 1) {
      for (int64_t c = b.c0; c < b.c1; ++c) {
        const float xh = (x[base + c] - mean[c]) * inv_std[c];
        if constexpr (kXhat) xhat[base + c] = xh;
        out[base + c] = gamma[c] * xh + beta[c];
      }
      continue;
    }
    for (int64_t c = b.c0; c < b.c1; ++c) {
      const float mu = mean[c], is = inv_std[c], g = gamma[c], bt = beta[c];
      for (int64_t i = base + c * b.hw; i < base + (c + 1) * b.hw; ++i) {
        const float xh = (x[i] - mu) * is;
        if constexpr (kXhat) xhat[i] = xh;
        out[i] = g * xh + bt;
      }
    }
  }
}

// Backward over a channel block: per-channel sums of dY and dY * x-hat
// (double, accumulated in (sample, pixel) order) and the input gradient.
// Frozen statistics make normalisation an affine map, so dX =
// gamma * inv_std * dY rides in the summing pass; batch statistics need the
// sums first (kBatchStats: a second pass).
template <bool kBatchStats>
void bn_backward_block(const ChannelBlock& b, const float* CHAM_RESTRICT go,
                       const float* CHAM_RESTRICT xhat,
                       const float* CHAM_RESTRICT gamma,
                       const float* CHAM_RESTRICT inv_std,
                       double* CHAM_RESTRICT sum_g,
                       double* CHAM_RESTRICT sum_gx,
                       float* CHAM_RESTRICT gi) {
  for (int64_t c = b.c0; c < b.c1; ++c) sum_g[c] = sum_gx[c] = 0;
  for (int64_t n = 0; n < b.batch; ++n) {
    const int64_t base = n * b.channels * b.hw;
    if (b.hw == 1) {
      // 1x1 maps: one contiguous run over the block's channels, each
      // channel's sums still advancing in sample order.
      for (int64_t c = b.c0; c < b.c1; ++c) {
        sum_g[c] += go[base + c];
        sum_gx[c] += double(go[base + c]) * double(xhat[base + c]);
        if constexpr (!kBatchStats) {
          gi[base + c] = gamma[c] * inv_std[c] * go[base + c];
        }
      }
      continue;
    }
    for (int64_t c = b.c0; c < b.c1; ++c) {
      for (int64_t i = base + c * b.hw; i < base + (c + 1) * b.hw; ++i) {
        sum_g[c] += go[i];
        sum_gx[c] += double(go[i]) * double(xhat[i]);
        if constexpr (!kBatchStats) gi[i] = gamma[c] * inv_std[c] * go[i];
      }
    }
  }
  if constexpr (kBatchStats) {
    const auto count = static_cast<double>(b.batch * b.hw);
    for (int64_t n = 0; n < b.batch; ++n) {
      const int64_t base = n * b.channels * b.hw;
      for (int64_t c = b.c0; c < b.c1; ++c) {
        const float mean_g = static_cast<float>(sum_g[c] / count);
        const float mean_gx = static_cast<float>(sum_gx[c] / count);
        const float gs = gamma[c] * inv_std[c];
        for (int64_t i = base + c * b.hw; i < base + (c + 1) * b.hw; ++i) {
          gi[i] = gs * (go[i] - mean_g - xhat[i] * mean_gx);
        }
      }
    }
  }
}

// ReLU (kClip: ReLU-N with N = clip) with its pass-through mask.
template <bool kClip, bool kMask>
void relu_span(const float* CHAM_RESTRICT x, int64_t n, float clip,
               float* CHAM_RESTRICT out, uint8_t* CHAM_RESTRICT mask) {
  for (int64_t i = 0; i < n; ++i) {
    const float xi = x[i];
    float v = xi > 0.0f ? xi : 0.0f;
    if constexpr (kClip) v = v > clip ? clip : v;
    out[i] = v;
    if constexpr (kMask) {
      // Non-short-circuit &: a branch-free compare the loop vectorises.
      mask[i] = kClip ? (xi > 0.0f) & (xi < clip) : xi > 0.0f;
    }
  }
}

void mask_span(const float* CHAM_RESTRICT go, const uint8_t* CHAM_RESTRICT mask,
               int64_t n, float* CHAM_RESTRICT gi) {
  for (int64_t i = 0; i < n; ++i) gi[i] = mask[i] ? go[i] : 0.0f;
}

#if defined(CHAM_SIMD_USE_AVX512)
// Channel lanes of the depthwise kernels: 8 consecutive channels, one per
// lane. A block of NCHW planes (channel j's `pix` values at src + j * pix)
// and its pixel-major lane layout (pixel i's 8 channels at lanes + i * 8)
// convert both ways; a 1-pixel plane already is the lane layout, so callers
// use it in place.
constexpr int64_t kLanes = 8;

void to_lanes(const float* CHAM_RESTRICT src, int64_t pix,
              float* CHAM_RESTRICT lanes) {
  for (int64_t j = 0; j < kLanes; ++j) {
    for (int64_t i = 0; i < pix; ++i) lanes[i * kLanes + j] = src[j * pix + i];
  }
}

void from_lanes(const float* CHAM_RESTRICT lanes, int64_t pix,
                float* CHAM_RESTRICT dst) {
  for (int64_t j = 0; j < kLanes; ++j) {
    for (int64_t i = 0; i < pix; ++i) dst[j * pix + i] = lanes[i * kLanes + j];
  }
}
#endif

}  // namespace

// ---------------------------------------------------------------- Conv2d

Conv2d::Conv2d(int64_t in_c, int64_t out_c, int64_t in_h, int64_t in_w,
               int64_t kernel, int64_t stride, int64_t pad, bool bias,
               Rng& rng, bool init)
    : geo_{in_c, in_h, in_w, kernel, stride, pad},
      out_c_(out_c),
      has_bias_(bias),
      weight_(Shape{{out_c, in_c * kernel * kernel}}),
      bias_(Shape{{bias ? out_c : 0}}) {
  if (init) he_init(weight_.value, in_c * kernel * kernel, rng);
}

int64_t Conv2d::macs_per_sample() const {
  return out_c_ * geo_.col_rows() * geo_.col_cols();
}

Tensor Conv2d::forward_gather(const GatherBatch& gb, bool train) {
  CHAM_CHECK(gb.sample_shape == (Shape{{geo_.in_c, geo_.in_h, geo_.in_w}}),
             "Conv2d input sample " + gb.sample_shape.to_string());
  if (train) cached_rows_.assign(gb.rows, gb.rows + gb.n);
  const int64_t batch = gb.n;
  const int64_t oh = geo_.out_h(), ow = geo_.out_w();
  const int64_t opix = oh * ow;
  const int64_t ipix = geo_.in_h * geo_.in_w;
  Tensor out({batch, out_c_, oh, ow});
  const auto add_bias = [&](int64_t n) {
    for (int64_t c = 0; c < out_c_; ++c) {
      float* plane = out.data() + (n * out_c_ + c) * opix;
      const float b = bias_.value[c];
      for (int64_t i = 0; i < opix; ++i) plane[i] += b;
    }
  };
  // Pointwise convs merge the whole batch into ONE gemm along the column
  // dimension: column (n, p) of the logical concatenated operand is pixel p
  // of sample n, so C[c][(n,p)] accumulates the same k-ascending fma chain
  // as a per-sample call — bit-identical output, but the weight panel is
  // packed once per row chunk instead of once per sample, and the kernel
  // sees n = batch*opix wide tiles instead of the n = opix (often 1..4)
  // slivers that defeat the SIMD path. The concatenated operand is never
  // materialised: the column-gather pack reads each sample's plane in place.
  if (is_pointwise(geo_)) {
    if (batch == 1) {
      // A single sample's plane already is the operand.
      gemm(out_c_, opix, geo_.in_c, 1.0f, weight_.value.data(), gb.rows[0],
           0.0f, out.data());
      if (has_bias_) add_bias(0);
      return out;
    }
    const int64_t cols = batch * opix;
    colptr_scratch_.resize(static_cast<size_t>(cols));
    for (int64_t n = 0; n < batch; ++n) {
      for (int64_t p = 0; p < opix; ++p) {
        colptr_scratch_[static_cast<size_t>(n * opix + p)] = gb.rows[n] + p;
      }
    }
    ws::ArenaScope scratch;
    float* ocat = scratch.floats(static_cast<size_t>(out_c_ * cols));
    gemm_gather_cols(out_c_, cols, geo_.in_c, 1.0f, weight_.value.data(),
                     colptr_scratch_.data(), ipix, 0.0f, ocat);
    // Scatter ocat[c][n*opix..] -> out[n][c][:], then the bias add.
    const auto out_plane = [&](int64_t n) {
      return out.data() + n * out_c_ * opix;
    };
    parallel_for(
        0, out_c_,
        [&](int64_t c0, int64_t c1) {
          scatter_panel(ocat, batch, opix, c0, c1, out_plane);
        },
        work_grain(cols));
    if (has_bias_) {
      for (int64_t n = 0; n < batch; ++n) add_bias(n);
    }
    return out;
  }
  // General path: per-sample im2col reads the sample's plane in place.
  const auto body = [&](int64_t n0, int64_t n1) {
    ws::ArenaScope scratch;
    float* col =
        scratch.floats(static_cast<size_t>(geo_.col_rows() * geo_.col_cols()));
    for (int64_t n = n0; n < n1; ++n) {
      im2col(gb.rows[n], geo_, col);
      gemm(out_c_, geo_.col_cols(), geo_.col_rows(), 1.0f,
           weight_.value.data(), col, 0.0f, out.data() + n * out_c_ * opix);
      if (has_bias_) add_bias(n);
    }
  };
  if (batch == 1) {
    body(0, 1);
  } else {
    parallel_for(0, batch, body, work_grain(macs_per_sample(), kChunkMacs));
  }
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const ConsumesForward consumed(*this);
  const auto batch = static_cast<int64_t>(cached_rows_.size());
  const int64_t oh = geo_.out_h(), ow = geo_.out_w();
  const int64_t opix = oh * ow;
  check_grad_shape(grad_out, Shape{{batch, out_c_, oh, ow}}, "Conv2d");

  Tensor grad_in;
  if (needs_input_grad_) {
    grad_in = Tensor({batch, geo_.in_c, geo_.in_h, geo_.in_w});
  }
  float* gw = weight_.grad_data();
  float* gb = has_bias_ ? bias_.grad_data() : nullptr;
  const int64_t ipix = geo_.in_h * geo_.in_w;
  const auto add_bias_grad = [&](const float* go) {
    for (int64_t c = 0; c < out_c_; ++c) {
      double acc = 0;
      for (int64_t i = 0; i < opix; ++i) acc += go[c * opix + i];
      gb[c] += static_cast<float>(acc);
    }
  };
  // The batch loop stays serial: dW accumulates across samples and its
  // per-element summation order must not depend on the thread count. The
  // parallelism lives inside the gemms (and col2im), which split rows.
  if (is_pointwise(geo_)) {
    // The column matrix is the input plane, so dW and dX come straight
    // from the operands: no im2col, no gcol, no col2im scatter. The batch
    // is merged into single gemms along the contraction (dW) and column
    // (dX) dimensions: the merged k axis of dW runs n-major/pixel-minor,
    // which is exactly the order the per-sample accumulation chained
    // through the C slot, so gradients are bit-identical to the sample
    // loop (and to the im2col path). Eliding the input gradient drops the
    // dX gemm and its scatter without touching the dW accumulation.
    const int64_t cols = batch * opix;
    if (batch == 1) {
      const float* go = grad_out.data();
      gemm_a_bt(out_c_, geo_.in_c, opix, 1.0f, go, cached_rows_[0], 1.0f, gw);
      if (needs_input_grad_) {
        gemm_at_b(geo_.in_c, opix, out_c_, 1.0f, weight_.value.data(), go,
                  0.0f, grad_in.data());
      }
      if (has_bias_) add_bias_grad(go);
      return grad_in;
    }
    ws::ArenaScope scratch;
    float* gocat = scratch.floats(static_cast<size_t>(out_c_ * cols));
    float* xcat = scratch.floats(static_cast<size_t>(geo_.in_c * cols));
    const int64_t row_grain = work_grain(cols);
    const auto go_plane = [&](int64_t n) {
      return grad_out.data() + n * out_c_ * opix;
    };
    const auto x_plane = [&](int64_t n) {
      return cached_rows_[static_cast<size_t>(n)];
    };
    parallel_for(
        0, out_c_,
        [&](int64_t c0, int64_t c1) {
          gather_panel(go_plane, batch, opix, c0, c1, gocat);
        },
        row_grain);
    parallel_for(
        0, geo_.in_c,
        [&](int64_t c0, int64_t c1) {
          gather_panel(x_plane, batch, opix, c0, c1, xcat);
        },
        row_grain);
    // dW += dYcat @ Xcat^T  (out_c x cols) @ (cols x in_c)
    gemm_a_bt(out_c_, geo_.in_c, cols, 1.0f, gocat, xcat, 1.0f, gw);
    if (needs_input_grad_) {
      float* gicat = scratch.floats(static_cast<size_t>(geo_.in_c * cols));
      // dXcat = W^T @ dYcat  (in_c x out_c) @ (out_c x cols)
      gemm_at_b(geo_.in_c, cols, out_c_, 1.0f, weight_.value.data(), gocat,
                0.0f, gicat);
      const auto gi_plane = [&](int64_t n) {
        return grad_in.data() + n * geo_.in_c * ipix;
      };
      parallel_for(
          0, geo_.in_c,
          [&](int64_t c0, int64_t c1) {
            scatter_panel(gicat, batch, opix, c0, c1, gi_plane);
          },
          row_grain);
    }
    // Bias gradient keeps the serial per-sample order (double accumulator
    // per channel, sample-major) so its bits match the previous loop.
    if (has_bias_) {
      for (int64_t n = 0; n < batch; ++n) {
        add_bias_grad(grad_out.data() + n * out_c_ * opix);
      }
    }
    return grad_in;
  }
  ws::ArenaScope scratch;
  const size_t col_elems =
      static_cast<size_t>(geo_.col_rows() * geo_.col_cols());
  float* col = scratch.floats(col_elems);
  float* gcol = needs_input_grad_ ? scratch.floats(col_elems) : nullptr;
  for (int64_t n = 0; n < batch; ++n) {
    const float* go = grad_out.data() + n * out_c_ * opix;
    // dW += dY @ col^T  (out_c x opix) @ (opix x col_rows)
    im2col(cached_rows_[static_cast<size_t>(n)], geo_, col);
    gemm_a_bt(out_c_, geo_.col_rows(), opix, 1.0f, go, col, 1.0f, gw);
    if (needs_input_grad_) {
      // dcol = W^T @ dY  (col_rows x out_c) @ (out_c x opix)
      gemm_at_b(geo_.col_rows(), opix, out_c_, 1.0f, weight_.value.data(), go,
                0.0f, gcol);
      col2im(gcol, geo_, grad_in.data() + n * geo_.in_c * ipix);
    }
    if (has_bias_) add_bias_grad(go);
  }
  return grad_in;
}

std::vector<Param*> Conv2d::params() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

// ------------------------------------------------------- DepthwiseConv2d

DepthwiseConv2d::DepthwiseConv2d(int64_t channels, int64_t in_h, int64_t in_w,
                                 int64_t kernel, int64_t stride, int64_t pad,
                                 Rng& rng, bool init)
    : geo_{channels, in_h, in_w, kernel, stride, pad},
      weight_(Shape{{channels, kernel * kernel}}) {
  if (init) he_init(weight_.value, kernel * kernel, rng);
  const int64_t oh = geo_.out_h(), ow = geo_.out_w();
  tap_begin_.reserve(static_cast<size_t>(oh * ow + 1));
  for (int64_t y = 0; y < oh; ++y) {
    for (int64_t xo = 0; xo < ow; ++xo) {
      tap_begin_.push_back(static_cast<int32_t>(taps_.size()));
      for (int64_t kh = 0; kh < kernel; ++kh) {
        const int64_t iy = y * stride + kh - pad;
        if (iy < 0 || iy >= in_h) continue;
        for (int64_t kw = 0; kw < kernel; ++kw) {
          const int64_t ix = xo * stride + kw - pad;
          if (ix < 0 || ix >= in_w) continue;
          taps_.push_back({static_cast<int32_t>(iy * in_w + ix),
                           static_cast<int32_t>(kh * kernel + kw)});
        }
      }
    }
  }
  tap_begin_.push_back(static_cast<int32_t>(taps_.size()));
}

int64_t DepthwiseConv2d::macs_per_sample() const {
  return geo_.in_c * geo_.kernel * geo_.kernel * geo_.col_cols();
}

void DepthwiseConv2d::forward_plane(const float* CHAM_RESTRICT plane,
                                    const float* CHAM_RESTRICT w,
                                    float* CHAM_RESTRICT out) const {
  const Tap* taps = taps_.data();
  const int64_t opix = static_cast<int64_t>(tap_begin_.size()) - 1;
  for (int64_t o = 0; o < opix; ++o) {
    double acc = 0;
    for (int32_t t = tap_begin_[static_cast<size_t>(o)];
         t < tap_begin_[static_cast<size_t>(o) + 1]; ++t) {
      acc += double(plane[taps[t].in]) * double(w[taps[t].w]);
    }
    out[o] = static_cast<float>(acc);
  }
}

// Lane form of forward_plane: per lane the same double accumulation over
// the output pixel's valid taps in (kh, kw) order. double(x) * double(w) is
// exact in double, so the lane's fma equals the scalar multiply-then-add,
// and the final conversion rounds to nearest like static_cast<float>.
int64_t DepthwiseConv2d::forward_lanes(const GatherBatch& gb,
                                       float* out) const {
#if defined(CHAM_SIMD_USE_AVX512)
  const int64_t channels = geo_.in_c;
  const int64_t blocks = channels / kLanes;
  if (blocks == 0) return 0;
  const int64_t kk = geo_.kernel * geo_.kernel;
  const int64_t ipix = geo_.in_h * geo_.in_w;
  const int64_t opix = static_cast<int64_t>(tap_begin_.size()) - 1;
  ws::ArenaScope scratch;
  // Tap-major weights: tap w of channel c at wt[w * channels + c], so a
  // lane block reads one vector per tap.
  float* wt = scratch.floats(static_cast<size_t>(kk * channels));
  for (int64_t c = 0; c < channels; ++c) {
    for (int64_t w = 0; w < kk; ++w) {
      wt[w * channels + c] = weight_.value[c * kk + w];
    }
  }
  const Tap* taps = taps_.data();
  const int32_t* begin = tap_begin_.data();
  // Blocks own their output channels; every output is written once.
  parallel_for(
      0, blocks,
      [&](int64_t b0, int64_t b1) {
        ws::ArenaScope local;
        float* xl = local.floats(static_cast<size_t>(ipix * kLanes));
        float* ol = local.floats(static_cast<size_t>(opix * kLanes));
        for (int64_t b = b0; b < b1; ++b) {
          const int64_t c0 = b * kLanes;
          const float* wb = wt + c0;
          for (int64_t n = 0; n < gb.n; ++n) {
            const float* x = gb.rows[n] + c0 * ipix;
            float* o = out + (n * channels + c0) * opix;
            if (ipix != 1) to_lanes(x, ipix, xl);
            const float* xs = ipix == 1 ? x : xl;
            float* os = opix == 1 ? o : ol;
            // The all-lanes maskz conversions are the plain ones; GCC 12's
            // unmasked forms trip -Wmaybe-uninitialized in its own header.
            for (int64_t p = 0; p < opix; ++p) {
              __m512d acc = _mm512_setzero_pd();
              for (int32_t t = begin[p]; t < begin[p + 1]; ++t) {
                const __m512d xv = _mm512_maskz_cvtps_pd(
                    0xFF, _mm256_loadu_ps(xs + taps[t].in * kLanes));
                const __m512d wv = _mm512_maskz_cvtps_pd(
                    0xFF, _mm256_loadu_ps(wb + taps[t].w * channels));
                acc = _mm512_fmadd_pd(xv, wv, acc);
              }
              _mm256_storeu_ps(os + p * kLanes,
                               _mm512_maskz_cvtpd_ps(0xFF, acc));
            }
            if (opix != 1) from_lanes(ol, opix, o);
          }
        }
      },
      work_grain(gb.n * kLanes * static_cast<int64_t>(taps_.size())));
  return blocks * kLanes;
#else
  (void)gb;
  (void)out;
  return 0;
#endif
}

Tensor DepthwiseConv2d::forward_gather(const GatherBatch& gb, bool train) {
  CHAM_CHECK(gb.sample_shape == (Shape{{geo_.in_c, geo_.in_h, geo_.in_w}}),
             "DepthwiseConv2d input sample " + gb.sample_shape.to_string());
  if (train) cached_rows_.assign(gb.rows, gb.rows + gb.n);
  const int64_t oh = geo_.out_h(), ow = geo_.out_w();
  Tensor out({gb.n, geo_.in_c, oh, ow});
  const int64_t kk = geo_.kernel * geo_.kernel;
  const int64_t ipix = geo_.in_h * geo_.in_w;
  const int64_t lane_c = forward_lanes(gb, out.data());
  const int64_t rest = geo_.in_c - lane_c;
  if (rest == 0) return out;
  // The remaining channels plane by plane; every (sample, channel) plane is
  // independent: parallel over the flattened plane index.
  parallel_for(
      0, gb.n * rest,
      [&](int64_t p0, int64_t p1) {
        for (int64_t pi = p0; pi < p1; ++pi) {
          const int64_t n = pi / rest, c = lane_c + pi % rest;
          forward_plane(gb.rows[n] + c * ipix, weight_.value.data() + c * kk,
                        out.data() + (n * geo_.in_c + c) * oh * ow);
        }
      },
      work_grain(static_cast<int64_t>(taps_.size())));
  return out;
}

template <bool kInputGrad>
void DepthwiseConv2d::backward_plane(const float* CHAM_RESTRICT plane,
                                     const float* CHAM_RESTRICT w,
                                     const float* CHAM_RESTRICT go,
                                     float* CHAM_RESTRICT gw,
                                     float* CHAM_RESTRICT gi) const {
  const Tap* taps = taps_.data();
  const int64_t opix = static_cast<int64_t>(tap_begin_.size()) - 1;
  for (int64_t o = 0; o < opix; ++o) {
    const float g = go[o];
    if (g == 0.0f) continue;
    for (int32_t t = tap_begin_[static_cast<size_t>(o)];
         t < tap_begin_[static_cast<size_t>(o) + 1]; ++t) {
      gw[taps[t].w] += g * plane[taps[t].in];
      if constexpr (kInputGrad) gi[taps[t].in] += g * w[taps[t].w];
    }
  }
}

// Lane form of backward_plane over a block's channels, with the same
// per-lane order: sample, output pixel, tap. GCC contracts the scalar
// `gw += g * x` and `gi += g * w` into fmas (DESIGN §9), so each lane runs
// the masked fma; the mask dY != 0 stands in for the scalar dY == 0 skip
// (a masked-out lane keeps its accumulator). Blocks own their channels'
// weight grads, so bits do not depend on the thread count.
template <bool kInputGrad>
int64_t DepthwiseConv2d::backward_lanes(const float* go, float* gw,
                                        float* gi) {
#if defined(CHAM_SIMD_USE_AVX512)
  const int64_t channels = geo_.in_c;
  const int64_t blocks = channels / kLanes;
  if (blocks == 0) return 0;
  const auto batch = static_cast<int64_t>(cached_rows_.size());
  const int64_t kk = geo_.kernel * geo_.kernel;
  const int64_t ipix = geo_.in_h * geo_.in_w;
  const int64_t opix = static_cast<int64_t>(tap_begin_.size()) - 1;
  const Tap* taps = taps_.data();
  const int32_t* begin = tap_begin_.data();
  parallel_for(
      0, blocks,
      [&](int64_t b0, int64_t b1) {
        ws::ArenaScope local;
        float* wl = local.floats(static_cast<size_t>(kk * kLanes));
        float* gwl = local.floats(static_cast<size_t>(kk * kLanes));
        float* xl = local.floats(static_cast<size_t>(ipix * kLanes));
        float* gl = local.floats(static_cast<size_t>(opix * kLanes));
        float* il = local.floats(static_cast<size_t>(ipix * kLanes));
        const __m256 zero = _mm256_setzero_ps();
        for (int64_t b = b0; b < b1; ++b) {
          const int64_t c0 = b * kLanes;
          if constexpr (kInputGrad) {
            to_lanes(weight_.value.data() + c0 * kk, kk, wl);
          }
          to_lanes(gw + c0 * kk, kk, gwl);
          for (int64_t n = 0; n < batch; ++n) {
            const float* x = cached_rows_[static_cast<size_t>(n)] + c0 * ipix;
            const float* g = go + (n * channels + c0) * opix;
            float* gin = kInputGrad ? gi + (n * channels + c0) * ipix : nullptr;
            if (ipix != 1) to_lanes(x, ipix, xl);
            if (opix != 1) to_lanes(g, opix, gl);
            const float* xs = ipix == 1 ? x : xl;
            const float* gs = opix == 1 ? g : gl;
            // grad_in arrives zeroed; lane scratch is zeroed to match.
            float* is = ipix == 1 ? gin : il;
            if (kInputGrad && ipix != 1) {
              std::fill(il, il + ipix * kLanes, 0.0f);
            }
            for (int64_t p = 0; p < opix; ++p) {
              const __m256 gv = _mm256_loadu_ps(gs + p * kLanes);
              const __mmask8 live = _mm256_cmp_ps_mask(gv, zero, _CMP_NEQ_UQ);
              if (live == 0) continue;
              for (int32_t t = begin[p]; t < begin[p + 1]; ++t) {
                float* gw = gwl + taps[t].w * kLanes;
                _mm256_storeu_ps(
                    gw, _mm256_mask3_fmadd_ps(
                            gv, _mm256_loadu_ps(xs + taps[t].in * kLanes),
                            _mm256_loadu_ps(gw), live));
                if constexpr (kInputGrad) {
                  float* gx = is + taps[t].in * kLanes;
                  _mm256_storeu_ps(
                      gx, _mm256_mask3_fmadd_ps(
                              gv, _mm256_loadu_ps(wl + taps[t].w * kLanes),
                              _mm256_loadu_ps(gx), live));
                }
              }
            }
            if (kInputGrad && ipix != 1) from_lanes(il, ipix, gin);
          }
          from_lanes(gwl, kk, gw + c0 * kk);
        }
      },
      work_grain(batch * kLanes * static_cast<int64_t>(taps_.size())));
  return blocks * kLanes;
#else
  (void)go;
  (void)gw;
  (void)gi;
  return 0;
#endif
}

Tensor DepthwiseConv2d::backward(const Tensor& grad_out) {
  const ConsumesForward consumed(*this);
  const auto batch = static_cast<int64_t>(cached_rows_.size());
  const int64_t oh = geo_.out_h(), ow = geo_.out_w();
  check_grad_shape(grad_out, Shape{{batch, geo_.in_c, oh, ow}},
                   "DepthwiseConv2d");
  const int64_t kk = geo_.kernel * geo_.kernel;
  const int64_t ipix = geo_.in_h * geo_.in_w;
  Tensor grad_in;
  if (needs_input_grad_) {
    grad_in = Tensor({batch, geo_.in_c, geo_.in_h, geo_.in_w});
  }
  float* gw_all = weight_.grad_data();
  // Channel-outer so each chunk owns its channels' weight grads outright;
  // the batch loop runs inside, preserving the per-element accumulation
  // order of the serial kernel (n ascending, then output pixel, then tap).
  // Elision drops the gi accumulation only; the gw chain is untouched.
  const int64_t lane_c =
      needs_input_grad_
          ? backward_lanes<true>(grad_out.data(), gw_all, grad_in.data())
          : backward_lanes<false>(grad_out.data(), gw_all, nullptr);
  parallel_for(
      lane_c, geo_.in_c,
      [&](int64_t c0, int64_t c1) {
        for (int64_t c = c0; c < c1; ++c) {
          const float* w = weight_.value.data() + c * kk;
          float* gw = gw_all + c * kk;
          for (int64_t n = 0; n < batch; ++n) {
            const float* plane =
                cached_rows_[static_cast<size_t>(n)] + c * ipix;
            const float* go = grad_out.data() + (n * geo_.in_c + c) * oh * ow;
            if (needs_input_grad_) {
              backward_plane<true>(
                  plane, w, go, gw,
                  grad_in.data() + (n * geo_.in_c + c) * ipix);
            } else {
              backward_plane<false>(plane, w, go, gw, nullptr);
            }
          }
        }
      },
      work_grain(batch * static_cast<int64_t>(taps_.size())));
  return grad_in;
}

// ----------------------------------------------------------- BatchNorm2d

BatchNorm2d::BatchNorm2d(int64_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(Shape{{channels}}),
      beta_(Shape{{channels}}),
      running_mean_({channels}),
      running_var_({channels}) {
  gamma_.value.fill(1.0f);
  running_var_.fill(1.0f);
}

Tensor BatchNorm2d::forward(const Tensor& x, bool train) {
  CHAM_CHECK(x.rank() == 4 && x.dim(1) == channels_,
             "BatchNorm2d input " + x.shape().to_string());
  const int64_t batch = x.dim(0), hw = x.dim(2) * x.dim(3);
  const int64_t count = batch * hw;
  cached_train_mode_ = train && track_stats_ && count > 1;

  // Normalisation statistics: the running stats, read in place, unless
  // this forward computes batch statistics.
  const float* mean = running_mean_.data();
  const float* var = running_var_.data();
  Tensor batch_mean, batch_var;
  if (cached_train_mode_) {
    batch_mean = Tensor({channels_});
    batch_var = Tensor({channels_});
    // Channels are independent; each chunk owns its channels' stats and
    // running-average slots.
    parallel_for(
        0, channels_,
        [&](int64_t c0, int64_t c1) {
          for (int64_t c = c0; c < c1; ++c) {
            double m = 0;
            for (int64_t n = 0; n < batch; ++n) {
              const float* p = x.data() + (n * channels_ + c) * hw;
              for (int64_t i = 0; i < hw; ++i) m += p[i];
            }
            m /= count;
            double v = 0;
            for (int64_t n = 0; n < batch; ++n) {
              const float* p = x.data() + (n * channels_ + c) * hw;
              for (int64_t i = 0; i < hw; ++i) {
                const double d = p[i] - m;
                v += d * d;
              }
            }
            v /= count;
            batch_mean[c] = static_cast<float>(m);
            batch_var[c] = static_cast<float>(v);
            running_mean_[c] =
                (1 - momentum_) * running_mean_[c] + momentum_ * batch_mean[c];
            running_var_[c] =
                (1 - momentum_) * running_var_[c] + momentum_ * batch_var[c];
          }
        },
        work_grain(2 * count));
    mean = batch_mean.data();
    var = batch_var.data();
  }

  // One pass: read x, write the output (and x-hat for backward) through
  // no-alias pointers. x-hat is bound here from the workspace pool and
  // lives until the backward that consumes it; inv_std keeps its storage.
  Tensor out(x.shape());
  // Compare shapes, not numel: an empty Tensor's rank-0 shape has numel 1,
  // which left a 1-channel layer writing through a null pointer.
  if (cached_inv_std_.shape() != Shape{{channels_}}) {
    cached_inv_std_ = Tensor({channels_});
  }
  if (train) cached_xhat_ = Tensor(x.shape());
  parallel_for(
      0, channels_,
      [&](int64_t c0, int64_t c1) {
        for (int64_t c = c0; c < c1; ++c) {
          cached_inv_std_[c] = 1.0f / std::sqrt(var[c] + eps_);
        }
        const ChannelBlock blk{batch, channels_, hw, c0, c1};
        if (train) {
          bn_forward_block<true>(blk, x.data(), mean, cached_inv_std_.data(),
                                 gamma_.value.data(), beta_.value.data(),
                                 out.data(), cached_xhat_.data());
        } else {
          bn_forward_block<false>(blk, x.data(), mean, cached_inv_std_.data(),
                                  gamma_.value.data(), beta_.value.data(),
                                  out.data(), nullptr);
        }
      },
      work_grain(count));
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  // Released to the pool on return: this backward consumes the forward's
  // x-hat.
  const Tensor xhat = std::exchange(cached_xhat_, Tensor());
  CHAM_CHECK(!xhat.empty(), "backward without train-mode forward");
  CHAM_CHECK(grad_out.shape() == xhat.shape(),
             "BatchNorm2d grad " + grad_out.shape().to_string());
  const int64_t batch = grad_out.dim(0), hw = grad_out.dim(2) * grad_out.dim(3);
  Tensor grad_in(grad_out.shape());
  sum_g_.resize(static_cast<size_t>(channels_));
  sum_gx_.resize(static_cast<size_t>(channels_));
  float* ggamma = gamma_.grad_data();
  float* gbeta = beta_.grad_data();
  parallel_for(
      0, channels_,
      [&](int64_t c0, int64_t c1) {
        const ChannelBlock blk{batch, channels_, hw, c0, c1};
        if (cached_train_mode_) {
          bn_backward_block<true>(blk, grad_out.data(), xhat.data(),
                                  gamma_.value.data(), cached_inv_std_.data(),
                                  sum_g_.data(), sum_gx_.data(),
                                  grad_in.data());
        } else {
          bn_backward_block<false>(blk, grad_out.data(), xhat.data(),
                                   gamma_.value.data(), cached_inv_std_.data(),
                                   sum_g_.data(), sum_gx_.data(),
                                   grad_in.data());
        }
        for (int64_t c = c0; c < c1; ++c) {
          ggamma[c] += static_cast<float>(sum_gx_[static_cast<size_t>(c)]);
          gbeta[c] += static_cast<float>(sum_g_[static_cast<size_t>(c)]);
        }
      },
      work_grain(2 * batch * hw));
  return grad_in;
}

// ------------------------------------------------------------------ ReLU

Tensor ReLU::forward(const Tensor& x, bool train) {
  Tensor out(x.shape());
  if (train) mask_.resize(static_cast<size_t>(x.numel()));
  uint8_t* mask = train ? mask_.data() : nullptr;
  parallel_for(
      0, out.numel(),
      [&](int64_t i0, int64_t i1) {
        const float* src = x.data() + i0;
        float* dst = out.data() + i0;
        const int64_t n = i1 - i0;
        if (clip_ > 0.0f) {
          if (mask) {
            relu_span<true, true>(src, n, clip_, dst, mask + i0);
          } else {
            relu_span<true, false>(src, n, clip_, dst, nullptr);
          }
        } else if (mask) {
          relu_span<false, true>(src, n, clip_, dst, mask + i0);
        } else {
          relu_span<false, false>(src, n, clip_, dst, nullptr);
        }
      },
      kChunkElems);
  return out;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  // Released to the pool on return: this backward consumes the forward's
  // mask.
  decltype(mask_) mask;
  mask.swap(mask_);
  CHAM_CHECK(!mask.empty() || grad_out.numel() == 0,
             "backward without train-mode forward");
  CHAM_CHECK(static_cast<int64_t>(mask.size()) == grad_out.numel(),
             "ReLU grad " + grad_out.shape().to_string() +
                 " does not match forward activation count " +
                 std::to_string(mask.size()));
  Tensor grad_in(grad_out.shape());
  parallel_for(
      0, grad_in.numel(),
      [&](int64_t i0, int64_t i1) {
        mask_span(grad_out.data() + i0, mask.data() + i0, i1 - i0,
                  grad_in.data() + i0);
      },
      kChunkElems);
  return grad_in;
}

// -------------------------------------------------------- GlobalAvgPool

Tensor GlobalAvgPool::forward_gather(const GatherBatch& gb, bool train) {
  CHAM_CHECK(gb.sample_shape.rank() == 3,
             "GlobalAvgPool input sample " + gb.sample_shape.to_string());
  const int64_t ch = gb.sample_shape[0];
  const int64_t hw = gb.sample_shape[1] * gb.sample_shape[2];
  if (train) {
    cached_in_shape_ =
        Shape{gb.n, ch, gb.sample_shape[1], gb.sample_shape[2]};
  }
  Tensor out({gb.n, ch});
  float* o = out.data();
  // Sample-outer, channel-inner from the chunk's first plane: the plane
  // index is split into (sample, channel) once per chunk, not per output.
  parallel_for(
      0, gb.n * ch,
      [&](int64_t p0, int64_t p1) {
        int64_t n = p0 / ch, c = p0 % ch;
        for (int64_t pi = p0; pi < p1; ++pi) {
          const float* p = gb.rows[n] + c * hw;
          double acc = 0;
          for (int64_t i = 0; i < hw; ++i) acc += p[i];
          o[pi] = static_cast<float>(acc / hw);
          if (++c == ch) {
            c = 0;
            ++n;
          }
        }
      },
      work_grain(hw));
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  const Shape in_shape = std::exchange(cached_in_shape_, Shape());
  CHAM_CHECK(in_shape.rank() == 4, "backward without train-mode forward");
  const int64_t batch = in_shape[0], ch = in_shape[1],
                hw = in_shape[2] * in_shape[3];
  check_grad_shape(grad_out, Shape{{batch, ch}}, "GlobalAvgPool");
  Tensor grad_in(in_shape);
  const float inv = 1.0f / static_cast<float>(hw);
  const float* go = grad_out.data();
  float* gi = grad_in.data();
  for (int64_t pi = 0; pi < batch * ch; ++pi) {
    const float g = go[pi] * inv;
    for (int64_t i = 0; i < hw; ++i) gi[pi * hw + i] = g;
  }
  return grad_in;
}

// ---------------------------------------------------------------- Linear

Linear::Linear(int64_t in_dim, int64_t out_dim, Rng& rng, bool init)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      weight_(Shape{{out_dim, in_dim}}),
      bias_(Shape{{out_dim}}) {
  if (init) he_init(weight_.value, in_dim, rng);
}

Tensor Linear::forward_gather(const GatherBatch& gb, bool train) {
  CHAM_CHECK(gb.sample_shape == Shape{{in_dim_}},
             "Linear input sample " + gb.sample_shape.to_string() +
                 ", expected (" + std::to_string(in_dim_) + ")");
  if (train) cached_rows_.assign(gb.rows, gb.rows + gb.n);
  Tensor out({gb.n, out_dim_});
  // out = x @ W^T + b, row i of the A operand read in place.
  gemm_gather_a_bt(gb.n, out_dim_, in_dim_, 1.0f, gb.rows,
                   weight_.value.data(), 0.0f, out.data());
  for (int64_t n = 0; n < gb.n; ++n) {
    float* o = out.data() + n * out_dim_;
    for (int64_t j = 0; j < out_dim_; ++j) o[j] += bias_.value[j];
  }
  return out;
}

Tensor Linear::backward(const Tensor& grad_out) {
  const ConsumesForward consumed(*this);
  const auto batch = static_cast<int64_t>(cached_rows_.size());
  check_grad_shape(grad_out, Shape{{batch, out_dim_}}, "Linear");
  // dW += dY^T @ X  (out x batch) @ (batch x in)
  gemm_at_b_gather_b(out_dim_, in_dim_, batch, 1.0f, grad_out.data(),
                     cached_rows_.data(), 1.0f, weight_.grad_data());
  float* gb = bias_.grad_data();
  for (int64_t n = 0; n < batch; ++n) {
    const float* go = grad_out.data() + n * out_dim_;
    for (int64_t j = 0; j < out_dim_; ++j) gb[j] += go[j];
  }
  if (!needs_input_grad_) return Tensor();
  // dX = dY @ W
  Tensor grad_in({batch, in_dim_});
  gemm(batch, in_dim_, out_dim_, 1.0f, grad_out.data(), weight_.value.data(),
       0.0f, grad_in.data());
  return grad_in;
}

}  // namespace cham::nn
