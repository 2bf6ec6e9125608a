// The observe path's kernels against the loops they replaced, bit for bit:
// the depthwise valid-tap table against the bounds-checked direct-indexing
// loop, Conv2d and Linear (whose one forward body reads rows by pointer)
// against cham::ref GEMMs over an in-test im2col of stacked copies, the
// batched Eq. 6 scorer against a one-row-at-a-time scorer, the hoisted SGD
// update against the per-element formula. Also pins down that a small
// model's steady observes never wake the thread pool.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "core/chameleon.h"
#include "core/long_term_memory.h"
#include "data/latent_cache.h"
#include "nn/layers.h"
#include "nn/sequential.h"
#include "nn/sgd.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/thread_pool.h"

namespace cham {
namespace {

bool same_bits(const float* a, const float* b, int64_t n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() && same_bits(a.data(), b.data(), a.numel());
}

void fill_normal(Tensor& t, Rng& rng, float zero_frac = 0.0f) {
  for (int64_t i = 0; i < t.numel(); ++i) {
    t[i] = rng.uniform() < zero_frac ? 0.0f : rng.normal_f(0.0f, 1.0f);
  }
}

// ------------------------------------------------------ depthwise conv

// The direct-indexing depthwise loops DepthwiseConv2d ran before its tap
// table: per output pixel a double accumulation over (kh, kw) ascending,
// skipping taps that fall in the padding.
void ref_dw_forward(const float* x, const float* w, int64_t batch,
                    const ConvGeometry& g, float* out) {
  const int64_t oh = g.out_h(), ow = g.out_w(), k = g.kernel;
  const int64_t ipix = g.in_h * g.in_w;
  for (int64_t pi = 0; pi < batch * g.in_c; ++pi) {
    const float* plane = x + pi * ipix;
    const float* wc = w + (pi % g.in_c) * k * k;
    float* o = out + pi * oh * ow;
    for (int64_t y = 0; y < oh; ++y) {
      for (int64_t xo = 0; xo < ow; ++xo) {
        double acc = 0;
        for (int64_t kh = 0; kh < k; ++kh) {
          const int64_t iy = y * g.stride + kh - g.pad;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int64_t kw = 0; kw < k; ++kw) {
            const int64_t ix = xo * g.stride + kw - g.pad;
            if (ix < 0 || ix >= g.in_w) continue;
            acc += double(plane[iy * g.in_w + ix]) * double(wc[kh * k + kw]);
          }
        }
        o[y * ow + xo] = static_cast<float>(acc);
      }
    }
  }
}

// gw accumulates (+=); gi, when non-null, must start zeroed.
void ref_dw_backward(const float* x, const float* w, const float* grad_out,
                     int64_t batch, const ConvGeometry& g, float* gw,
                     float* gi) {
  const int64_t oh = g.out_h(), ow = g.out_w(), k = g.kernel;
  const int64_t ipix = g.in_h * g.in_w;
  for (int64_t c = 0; c < g.in_c; ++c) {
    const float* wc = w + c * k * k;
    float* gwc = gw + c * k * k;
    for (int64_t n = 0; n < batch; ++n) {
      const float* plane = x + (n * g.in_c + c) * ipix;
      const float* go = grad_out + (n * g.in_c + c) * oh * ow;
      float* gip = gi ? gi + (n * g.in_c + c) * ipix : nullptr;
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t xo = 0; xo < ow; ++xo) {
          const float gv = go[y * ow + xo];
          if (gv == 0.0f) continue;
          for (int64_t kh = 0; kh < k; ++kh) {
            const int64_t iy = y * g.stride + kh - g.pad;
            if (iy < 0 || iy >= g.in_h) continue;
            for (int64_t kw = 0; kw < k; ++kw) {
              const int64_t ix = xo * g.stride + kw - g.pad;
              if (ix < 0 || ix >= g.in_w) continue;
              gwc[kh * k + kw] += gv * plane[iy * g.in_w + ix];
              if (gip) gip[iy * g.in_w + ix] += gv * wc[kh * k + kw];
            }
          }
        }
      }
    }
  }
}

struct DwCase {
  int64_t channels, hw, stride;
};

class DepthwiseExact : public ::testing::TestWithParam<DwCase> {};

TEST_P(DepthwiseExact, TapTableMatchesDirectIndexing) {
  const DwCase dc = GetParam();
  const int64_t batch = 5;
  Rng rng(11 + static_cast<uint64_t>(dc.channels * 7 + dc.hw + dc.stride));
  nn::DepthwiseConv2d dw(dc.channels, dc.hw, dc.hw, 3, dc.stride, 1, rng);
  const ConvGeometry g = dw.geometry();
  Tensor& w = dw.params()[0]->value;
  Tensor x({batch, dc.channels, dc.hw, dc.hw});
  fill_normal(x, rng);
  Tensor go({batch, dc.channels, g.out_h(), g.out_w()});

  // Forward, dense and gathered (rows reversed, so the gather is real).
  Tensor ref({batch, dc.channels, g.out_h(), g.out_w()});
  ref_dw_forward(x.data(), w.data(), batch, g, ref.data());
  EXPECT_TRUE(same_bits(dw.forward(x, /*train=*/false), ref));
  const int64_t sample = dc.channels * dc.hw * dc.hw;
  std::vector<const float*> rows;
  for (int64_t n = batch - 1; n >= 0; --n) {
    rows.push_back(x.data() + n * sample);
  }
  nn::GatherBatch gb{rows.data(), batch, Shape{{dc.channels, dc.hw, dc.hw}}};
  const Tensor gathered = dw.forward_gather(gb, /*train=*/false);
  for (int64_t n = 0; n < batch; ++n) {
    const int64_t out_sample = dc.channels * g.out_h() * g.out_w();
    EXPECT_TRUE(same_bits(gathered.data() + n * out_sample,
                          ref.data() + (batch - 1 - n) * out_sample,
                          out_sample));
  }

  // Backward with and without the input gradient; weight grads accumulate
  // over two calls. A quarter of dY is exactly zero (the skipped taps).
  for (bool input_grad : {true, false}) {
    for (bool gathered_fwd : {false, true}) {
      dw.set_needs_input_grad(input_grad);
      dw.params()[0]->zero_grad();
      std::vector<float> ref_gw(static_cast<size_t>(w.numel()), 0.0f);
      for (int call = 0; call < 2; ++call) {
        fill_normal(go, rng, /*zero_frac=*/0.25f);
        if (gathered_fwd) {
          (void)dw.forward_gather(gb, /*train=*/true);
        } else {
          (void)dw.forward(x, /*train=*/true);
        }
        const Tensor gi = dw.backward(go);
        // The gathered forward saw the samples in reverse order.
        Tensor xs = x;
        if (gathered_fwd) {
          for (int64_t n = 0; n < batch; ++n) {
            std::memcpy(xs.data() + n * sample, rows[static_cast<size_t>(n)],
                        static_cast<size_t>(sample) * sizeof(float));
          }
        }
        Tensor ref_gi;
        if (input_grad) ref_gi = Tensor(xs.shape());
        ref_dw_backward(xs.data(), w.data(), go.data(), batch, g,
                        ref_gw.data(), input_grad ? ref_gi.data() : nullptr);
        if (input_grad) {
          EXPECT_TRUE(same_bits(gi, ref_gi)) << "call " << call;
        } else {
          EXPECT_TRUE(gi.empty());
        }
        EXPECT_TRUE(same_bits(dw.params()[0]->grad.data(), ref_gw.data(),
                              w.numel()))
            << "call " << call << " input_grad " << input_grad;
      }
    }
  }
}

// The served head's three depthwise geometries (256x2x2 s1, 256x2x2 s2,
// 512x1x1 s1) plus larger maps at both strides, where interior pixels have
// all nine taps and edge pixels lose some to the padding.
INSTANTIATE_TEST_SUITE_P(
    Geometries, DepthwiseExact,
    ::testing::Values(DwCase{256, 2, 1}, DwCase{256, 2, 2}, DwCase{512, 1, 1},
                      DwCase{6, 5, 1}, DwCase{6, 5, 2}, DwCase{6, 8, 1},
                      DwCase{6, 8, 2}),
    [](const ::testing::TestParamInfo<DwCase>& info) {
      std::ostringstream name;
      name << "c" << info.param.channels << "_hw" << info.param.hw << "_s"
           << info.param.stride;
      return name.str();
    });

// ------------------------------------------------- Conv2d and Linear
//
// Oracles that share no code with the layers: the stacked batch is built by
// copying each gathered row, the column matrix by an in-test im2col, and
// every product by the serial cham::ref kernels (bit-identical to the
// packed GEMMs by their determinism contract, see tensor/gemm.h).

// Sample n of the result is a copy of rows[n].
Tensor stack_rows(const std::vector<const float*>& rows, Shape sample) {
  std::vector<int64_t> dims{static_cast<int64_t>(rows.size())};
  for (int64_t d : sample.dims()) dims.push_back(d);
  Tensor out{Shape(dims)};
  const int64_t numel = sample.numel();
  for (size_t n = 0; n < rows.size(); ++n) {
    std::memcpy(out.data() + static_cast<int64_t>(n) * numel, rows[n],
                static_cast<size_t>(numel) * sizeof(float));
  }
  return out;
}

// Column matrix of one C x H x W image: row (c, kh, kw), column (y, x);
// taps in the padding read 0.
std::vector<float> ref_im2col(const float* img, const ConvGeometry& g) {
  const int64_t oh = g.out_h(), ow = g.out_w(), k = g.kernel;
  std::vector<float> col(static_cast<size_t>(g.col_rows() * oh * ow));
  for (int64_t c = 0; c < g.in_c; ++c) {
    for (int64_t kh = 0; kh < k; ++kh) {
      for (int64_t kw = 0; kw < k; ++kw) {
        const int64_t row = (c * k + kh) * k + kw;
        for (int64_t y = 0; y < oh; ++y) {
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t iy = y * g.stride + kh - g.pad;
            const int64_t ix = x * g.stride + kw - g.pad;
            const bool in = iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
            col[static_cast<size_t>((row * oh + y) * ow + x)] =
                in ? img[(c * g.in_h + iy) * g.in_w + ix] : 0.0f;
          }
        }
      }
    }
  }
  return col;
}

// Its transpose: adds every column element into the image pixel it was
// read from, in (c, kh, kw, y, x) order. img must start zeroed.
void ref_col2im(const float* col, const ConvGeometry& g, float* img) {
  const int64_t oh = g.out_h(), ow = g.out_w(), k = g.kernel;
  for (int64_t c = 0; c < g.in_c; ++c) {
    for (int64_t kh = 0; kh < k; ++kh) {
      for (int64_t kw = 0; kw < k; ++kw) {
        const int64_t row = (c * k + kh) * k + kw;
        for (int64_t y = 0; y < oh; ++y) {
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t iy = y * g.stride + kh - g.pad;
            const int64_t ix = x * g.stride + kw - g.pad;
            if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) continue;
            img[(c * g.in_h + iy) * g.in_w + ix] +=
                col[(row * oh + y) * ow + x];
          }
        }
      }
    }
  }
}

struct ConvCase {
  int64_t in_c, out_c, hw, kernel, stride, batch;
  bool bias;
};

class ConvExact : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvExact, MatchesRefGemmOverIm2col) {
  const ConvCase cc = GetParam();
  const int64_t batch = cc.batch;
  Rng rng(41 + static_cast<uint64_t>(cc.in_c * 13 + cc.hw * 3 + cc.stride +
                                     cc.batch * 101));
  nn::Conv2d conv(cc.in_c, cc.out_c, cc.hw, cc.hw, cc.kernel, cc.stride,
                  cc.kernel / 2, cc.bias, rng);
  const ConvGeometry g = conv.geometry();
  const int64_t opix = g.out_h() * g.out_w();
  const int64_t sample = cc.in_c * cc.hw * cc.hw;
  const Shape sample_shape{{cc.in_c, cc.hw, cc.hw}};
  auto params = conv.params();
  const Tensor& w = params[0]->value;
  if (cc.bias) fill_normal(params[1]->value, rng);
  const float* bias = cc.bias ? params[1]->value.data() : nullptr;

  // Scattered samples, gathered in reverse so the row table is a real
  // permutation; `stacked` holds copies in gathered order.
  Tensor x({batch, cc.in_c, cc.hw, cc.hw});
  fill_normal(x, rng);
  std::vector<const float*> rows;
  for (int64_t n = batch - 1; n >= 0; --n) {
    rows.push_back(x.data() + n * sample);
  }
  const Tensor stacked = stack_rows(rows, sample_shape);
  const nn::GatherBatch gb{rows.data(), batch, sample_shape};

  std::vector<std::vector<float>> cols;
  Tensor ref({batch, cc.out_c, g.out_h(), g.out_w()});
  for (int64_t n = 0; n < batch; ++n) {
    cols.push_back(ref_im2col(stacked.data() + n * sample, g));
    float* o = ref.data() + n * cc.out_c * opix;
    ref::gemm(cc.out_c, opix, g.col_rows(), 1.0f, w.data(),
              cols.back().data(), 0.0f, o);
    for (int64_t c = 0; bias && c < cc.out_c; ++c) {
      for (int64_t i = 0; i < opix; ++i) o[c * opix + i] += bias[c];
    }
  }
  EXPECT_TRUE(same_bits(conv.forward(stacked, /*train=*/false), ref));
  EXPECT_TRUE(same_bits(conv.forward_gather(gb, /*train=*/false), ref));

  // dW and the bias grad accumulate over two calls; dX with and without
  // elision, after a dense and after a gathered train forward.
  Tensor go({batch, cc.out_c, g.out_h(), g.out_w()});
  for (bool input_grad : {true, false}) {
    for (bool gathered_fwd : {false, true}) {
      conv.set_needs_input_grad(input_grad);
      for (nn::Param* p : params) p->zero_grad();
      std::vector<float> ref_gw(static_cast<size_t>(w.numel()), 0.0f);
      std::vector<float> ref_gb(static_cast<size_t>(cc.out_c), 0.0f);
      for (int call = 0; call < 2; ++call) {
        fill_normal(go, rng);
        const Tensor y = gathered_fwd ? conv.forward_gather(gb, true)
                                      : conv.forward(stacked, true);
        EXPECT_TRUE(same_bits(y, ref));
        const Tensor gi = conv.backward(go);
        Tensor ref_gi(stacked.shape());
        std::vector<float> gcol(cols[0].size());
        for (int64_t n = 0; n < batch; ++n) {
          const float* gon = go.data() + n * cc.out_c * opix;
          ref::gemm_a_bt(cc.out_c, g.col_rows(), opix, 1.0f, gon,
                         cols[static_cast<size_t>(n)].data(), 1.0f,
                         ref_gw.data());
          for (int64_t c = 0; c < cc.out_c; ++c) {
            double acc = 0;
            for (int64_t i = 0; i < opix; ++i) acc += gon[c * opix + i];
            ref_gb[static_cast<size_t>(c)] += static_cast<float>(acc);
          }
          ref::gemm_at_b(g.col_rows(), opix, cc.out_c, 1.0f, w.data(), gon,
                         0.0f, gcol.data());
          ref_col2im(gcol.data(), g, ref_gi.data() + n * sample);
        }
        const std::string where = "call " + std::to_string(call) +
                                  " input_grad " + std::to_string(input_grad) +
                                  " gathered " + std::to_string(gathered_fwd);
        EXPECT_TRUE(same_bits(params[0]->grad.data(), ref_gw.data(),
                              w.numel()))
            << where;
        if (cc.bias) {
          EXPECT_TRUE(same_bits(params[1]->grad.data(), ref_gb.data(),
                                cc.out_c))
              << where;
        }
        if (input_grad) {
          EXPECT_TRUE(same_bits(gi, ref_gi)) << where;
        } else {
          EXPECT_TRUE(gi.empty()) << where;
        }
      }
    }
  }
}

// Pointwise at n = 1 (one plain GEMM) and n > 1 (one column-gathered GEMM
// over the whole batch) on the served head's 2x2 and 1x1 maps, channel
// counts off the SIMD tile sizes; 3x3 convs (per-sample im2col) at stride
// 1 and 2.
INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvExact,
    ::testing::Values(ConvCase{36, 44, 2, 1, 1, 1, false},
                      ConvCase{36, 44, 2, 1, 1, 6, false},
                      ConvCase{70, 21, 1, 1, 1, 1, true},
                      ConvCase{70, 21, 1, 1, 1, 9, true},
                      ConvCase{5, 11, 5, 3, 1, 3, true},
                      ConvCase{5, 11, 8, 3, 2, 3, false},
                      ConvCase{5, 11, 8, 3, 2, 1, true}),
    [](const ::testing::TestParamInfo<ConvCase>& info) {
      std::ostringstream name;
      name << "k" << info.param.kernel << "_s" << info.param.stride << "_hw"
           << info.param.hw << "_n" << info.param.batch;
      return name.str();
    });

TEST(LinearExact, MatchesRefGemm) {
  for (const int64_t batch : {1, 13}) {
    const int64_t in = 67, out = 9;
    Rng rng(51 + static_cast<uint64_t>(batch));
    nn::Linear fc(in, out, rng);
    auto params = fc.params();
    fill_normal(params[1]->value, rng);
    const float* w = params[0]->value.data();
    const float* bias = params[1]->value.data();
    Tensor x({batch, in});
    fill_normal(x, rng);
    std::vector<const float*> rows;
    for (int64_t n = batch - 1; n >= 0; --n) {
      rows.push_back(x.data() + n * in);
    }
    const Tensor stacked = stack_rows(rows, Shape{{in}});
    const nn::GatherBatch gb{rows.data(), batch, Shape{{in}}};

    Tensor ref({batch, out});
    ref::gemm_a_bt(batch, out, in, 1.0f, stacked.data(), w, 0.0f,
                   ref.data());
    for (int64_t i = 0; i < ref.numel(); ++i) ref[i] += bias[i % out];
    EXPECT_TRUE(same_bits(fc.forward(stacked, /*train=*/false), ref));
    EXPECT_TRUE(same_bits(fc.forward_gather(gb, /*train=*/false), ref));

    Tensor go({batch, out});
    for (bool input_grad : {true, false}) {
      for (bool gathered_fwd : {false, true}) {
        fc.set_needs_input_grad(input_grad);
        for (nn::Param* p : params) p->zero_grad();
        std::vector<float> ref_gw(static_cast<size_t>(out * in), 0.0f);
        std::vector<float> ref_gb(static_cast<size_t>(out), 0.0f);
        for (int call = 0; call < 2; ++call) {
          fill_normal(go, rng);
          (void)(gathered_fwd ? fc.forward_gather(gb, true)
                              : fc.forward(stacked, true));
          const Tensor gi = fc.backward(go);
          ref::gemm_at_b(out, in, batch, 1.0f, go.data(), stacked.data(),
                         1.0f, ref_gw.data());
          for (int64_t i = 0; i < go.numel(); ++i) {
            ref_gb[static_cast<size_t>(i % out)] += go[i];
          }
          Tensor ref_gi({batch, in});
          ref::gemm(batch, in, out, 1.0f, go.data(), w, 0.0f, ref_gi.data());
          const std::string where =
              "n " + std::to_string(batch) + " call " + std::to_string(call) +
              " input_grad " + std::to_string(input_grad) + " gathered " +
              std::to_string(gathered_fwd);
          EXPECT_TRUE(same_bits(params[0]->grad.data(), ref_gw.data(),
                                out * in))
              << where;
          EXPECT_TRUE(same_bits(params[1]->grad.data(), ref_gb.data(), out))
              << where;
          if (input_grad) {
            EXPECT_TRUE(same_bits(gi, ref_gi)) << where;
          } else {
            EXPECT_TRUE(gi.empty()) << where;
          }
        }
      }
    }
  }
}

// ------------------------------------------------------------------ SGD

// Three steps of Sgd against the per-element update it hoists:
// g' = g + wd * w; v = mu * v + g'; w -= lr * v (no velocity when mu == 0).
TEST(SgdExact, MatchesPerElementFormula) {
  struct Cfg {
    float momentum, weight_decay;
  };
  for (const Cfg cfg : {Cfg{0.9f, 5e-4f}, Cfg{0.9f, 0.0f}, Cfg{0.0f, 5e-4f},
                        Cfg{0.0f, 0.0f}}) {
    Rng rng(21);
    nn::Param p(Shape{{4, 37}});
    fill_normal(p.value, rng);
    std::vector<float> w(p.value.data(), p.value.data() + p.numel());
    std::vector<float> v(w.size(), 0.0f);
    const float lr = 0.05f;
    nn::Sgd opt({&p}, lr, cfg.momentum, cfg.weight_decay);
    for (int step = 0; step < 3; ++step) {
      opt.zero_grad();
      fill_normal(p.grad, rng);
      for (size_t j = 0; j < w.size(); ++j) {
        float g = p.grad[static_cast<int64_t>(j)];
        if (cfg.weight_decay > 0.0f) g += cfg.weight_decay * w[j];
        if (cfg.momentum > 0.0f) {
          v[j] = cfg.momentum * v[j] + g;
          g = v[j];
        }
        w[j] -= lr * g;
      }
      opt.step();
      EXPECT_TRUE(same_bits(p.value.data(), w.data(), p.numel()))
          << "momentum " << cfg.momentum << " wd " << cfg.weight_decay
          << " step " << step;
    }
  }
}

// ------------------------------------------------- batched Eq. 6 scoring

std::unique_ptr<nn::Sequential> make_scoring_head() {
  Rng rng(31);
  auto g = std::make_unique<nn::Sequential>();
  g->add(std::make_unique<nn::DepthwiseConv2d>(4, 2, 2, 3, 1, 1, rng));
  g->add(std::make_unique<nn::BatchNorm2d>(4));
  g->add(std::make_unique<nn::ReLU>(6.0f));
  g->add(std::make_unique<nn::Conv2d>(4, 8, 2, 2, 1, 1, 0, false, rng));
  g->add(std::make_unique<nn::BatchNorm2d>(8));
  g->add(std::make_unique<nn::ReLU>(6.0f));
  g->add(std::make_unique<nn::GlobalAvgPool>());
  g->add(std::make_unique<nn::Linear>(8, 4, rng));
  return g;
}

replay::ReplaySample random_sample(int64_t label, int32_t inst, Rng& rng) {
  replay::ReplaySample s;
  s.label = label;
  s.key = {static_cast<int32_t>(label), 0, inst, false};
  s.latent = Tensor({1, 4, 2, 2});
  fill_normal(s.latent, rng);
  return s;
}

// The class-by-class update update_from ran before its scoring was
// batched: per class (same grouping, same iteration order) form the
// prototype, score it and each candidate with one-row forwards, insert the
// max-S_j candidate.
int64_t class_by_class_update(
    core::LongTermMemory& lt, const std::vector<replay::ReplaySample>& st,
    const std::function<std::vector<float>(const Tensor&)>& predict, Rng& rng,
    int64_t* proto_entries) {
  std::unordered_map<int64_t, std::vector<const replay::ReplaySample*>>
      by_class;
  for (const auto& s : st) by_class[s.label].push_back(&s);
  int64_t updated = 0;
  *proto_entries = 0;
  for (auto& [cls, candidates] : by_class) {
    const replay::ReplaySample* best = candidates.front();
    if (candidates.size() > 1) {
      if (auto proto = lt.prototype(cls)) {
        *proto_entries += lt.class_count(cls);
        const auto proto_probs = predict(*proto);
        double best_s = -1;
        for (const auto* cand : candidates) {
          const double s = core::LongTermMemory::prototype_divergence(
              predict(cand->latent), proto_probs);
          if (s > best_s) {
            best_s = s;
            best = cand;
          }
        }
      } else {
        best = candidates[static_cast<size_t>(
            rng.uniform_int(static_cast<int64_t>(candidates.size())))];
      }
    }
    lt.insert(*best, rng);
    ++updated;
  }
  return updated;
}

void expect_same_entries(const core::LongTermMemory& a,
                         const core::LongTermMemory& b) {
  const auto ea = a.all_samples(), eb = b.all_samples();
  ASSERT_EQ(ea.size(), eb.size());
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].label, eb[i].label);
    EXPECT_EQ(ea[i].key.instance_id, eb[i].key.instance_id);
    EXPECT_TRUE(same_bits(ea[i].latent, eb[i].latent));
  }
}

// update_from through the one-call batch scorer must leave exactly the
// state a scorer that runs one single-row forward per row leaves — same LT
// slots, same RNG stream, same prototype reads, same forward-MAC charge —
// and the state of the class-by-class loop it replaced.
TEST(BatchedPrototypeScoring, MatchesPerRowScoring) {
  auto head = make_scoring_head();
  const Shape latent{{4, 2, 2}};
  const int64_t macs = head->macs_per_sample();

  Rng fill(41);
  // 4 classes, quota 3: classes 0-2 hold entries (class 2 a single one),
  // class 3 none, so every branch of the update runs.
  core::LongTermMemory base(12, 4);
  Rng insert_rng(42);
  for (int i = 0; i < 3; ++i) {
    base.insert(random_sample(0, i, fill), insert_rng);
  }
  for (int i = 0; i < 2; ++i) {
    base.insert(random_sample(1, i, fill), insert_rng);
  }
  base.insert(random_sample(2, 0, fill), insert_rng);
  std::vector<replay::ReplaySample> st;
  for (int64_t label : {0, 1, 0, 2, 3, 1, 3, 0, 2}) {
    st.push_back(random_sample(label, 10 + static_cast<int32_t>(st.size()),
                               fill));
  }

  double batch_macs = 0;
  int64_t batch_calls = 0;
  auto batch_score = [&](std::span<const float* const> rows) {
    ++batch_calls;
    batch_macs += static_cast<double>(macs * static_cast<int64_t>(rows.size()));
    nn::GatherBatch gb{rows.data(), static_cast<int64_t>(rows.size()), latent};
    return ops::softmax(head->forward_gather(gb, /*train=*/false));
  };
  double row_macs = 0;
  auto per_row_score = [&](std::span<const float* const> rows) {
    Tensor probs;
    for (size_t i = 0; i < rows.size(); ++i) {
      row_macs += static_cast<double>(macs);
      const Tensor x(Shape{{1, 4, 2, 2}},
                     std::span<const float>(rows[i], 16));
      const Tensor logits = head->forward(x, /*train=*/false);
      const auto p = ops::softmax_row(logits.row(0));
      if (probs.empty()) {
        probs = Tensor({static_cast<int64_t>(rows.size()),
                        static_cast<int64_t>(p.size())});
      }
      std::memcpy(probs.data() + static_cast<int64_t>(i) * probs.dim(1),
                  p.data(), p.size() * sizeof(float));
    }
    return probs;
  };

  core::LongTermMemory lt_batch = base, lt_row = base, lt_ref = base;
  Rng rng_batch(43), rng_row(43), rng_ref(43);
  int64_t proto_batch = -1, proto_row = -1, proto_ref = -1;
  const int64_t up_batch =
      lt_batch.update_from(st, batch_score, rng_batch, &proto_batch);
  const int64_t up_row =
      lt_row.update_from(st, per_row_score, rng_row, &proto_row);
  auto predict = [&](const Tensor& latent) {
    return ops::softmax_row(head->forward(latent, /*train=*/false).row(0));
  };
  const int64_t up_ref =
      class_by_class_update(lt_ref, st, predict, rng_ref, &proto_ref);

  EXPECT_EQ(batch_calls, 1);
  EXPECT_GT(batch_macs, 0);
  EXPECT_EQ(batch_macs, row_macs);
  EXPECT_EQ(up_batch, up_row);
  EXPECT_EQ(up_batch, up_ref);
  EXPECT_EQ(proto_batch, proto_row);
  EXPECT_EQ(proto_batch, proto_ref);
  EXPECT_EQ(rng_batch.state(), rng_row.state());
  EXPECT_EQ(rng_batch.state(), rng_ref.state());
  expect_same_entries(lt_batch, lt_row);
  expect_same_entries(lt_batch, lt_ref);
}

// ------------------------------------------- no pool wake-ups when small

// bench_observe's model: 3x8x8 images, one frozen conv to 4x4x4 latents, a
// conv-first head. Each of its kernels is far below one chunk of work, so
// with a 4-thread pool the steady observe loop (and the predicts between
// observes) must run every parallel_for inline.
TEST(PoolDispatch, SmallModelSteadyObservesNeverWakeThePool) {
  data::DatasetConfig data_cfg = data::core50_config();
  data_cfg.num_classes = 6;
  data_cfg.num_domains = 3;
  data_cfg.image_hw = 8;
  data_cfg.train_instances = 4;
  Rng frng(1);
  nn::Sequential f;
  f.add(std::make_unique<nn::Conv2d>(3, 4, 8, 8, 3, 2, 1, false, frng));
  f.add(std::make_unique<nn::ReLU>());
  data::LatentCache latents(data_cfg, f);
  core::LearnerEnv env;
  env.data_cfg = &data_cfg;
  env.latents = &latents;
  env.latent_shape = Shape{{4, 4, 4}};
  env.f_fwd_macs = f.macs_per_sample();
  env.lr = 0.01f;
  env.head_factory = [] {
    Rng hrng(2);
    auto g = std::make_unique<nn::Sequential>();
    g->add(std::make_unique<nn::Conv2d>(4, 8, 4, 4, 3, 1, 1, false, hrng));
    g->add(std::make_unique<nn::ReLU>());
    g->add(std::make_unique<nn::GlobalAvgPool>());
    g->add(std::make_unique<nn::Linear>(8, 6, hrng));
    return g;
  };
  core::ChameleonConfig cc;
  cc.lt_capacity = 24;
  cc.learning_window = 40;

  const int threads_before = num_threads();
  set_num_threads(4);
  core::ChameleonLearner learner(env, cc, /*seed=*/7);
  auto batch = [](long long s) {
    data::Batch b;
    b.domain = 0;
    for (int i = 0; i < 4; ++i) {
      const long long j = s + i;
      b.keys.push_back({static_cast<int32_t>(j % 6), 0,
                        static_cast<int32_t>(j % 4), false});
      b.labels.push_back(j % 6);
    }
    return b;
  };
  std::vector<data::ImageKey> eval_keys;
  for (int i = 0; i < 24; ++i) {
    eval_keys.push_back({static_cast<int32_t>(i % 6), 0,
                         static_cast<int32_t>(i % 4), false});
  }
  long long step = 0;
  for (; step < 120; ++step) learner.observe(batch(step));
  (void)learner.predict(eval_keys);

  const uint64_t before = detail::pool_dispatches();
  for (int i = 0; i < 200; ++i, ++step) {
    learner.observe(batch(step));
    (void)learner.predict(eval_keys);
  }
  const uint64_t dispatches = detail::pool_dispatches() - before;
  set_num_threads(threads_before);
  EXPECT_EQ(dispatches, 0u);
}

// The pool's wake-up rule on the served head's GEMMs, at 4 threads. The
// per-sample pointwise conv (256x4x256) sits exactly at the flop-aware
// gemm_grain and must stay on the inline fast path: the serve path issues
// it per request, and a dispatch would cost more than the arithmetic it
// hides. The 256-sample eval chunk (256x1024x256) is far above the grain
// and must actually fan out across the pool.
TEST(PoolDispatch, HeadGemmWakesThePoolOnlyAboveTheGrain) {
  const int threads_before = num_threads();
  set_num_threads(4);
  Rng rng(0x5AB6);
  Tensor a({256, 256}), b_small({256, 4}), b_large({256, 1024});
  Tensor c_small({256, 4}), c_large({256, 1024});
  ops::fill_normal(a, rng, 0.0f, 1.0f);
  ops::fill_normal(b_small, rng, 0.0f, 1.0f);
  ops::fill_normal(b_large, rng, 0.0f, 1.0f);
  auto small = [&] {
    gemm(256, 4, 256, 1.0f, a.data(), b_small.data(), 0.0f, c_small.data());
  };
  auto large = [&] {
    gemm(256, 1024, 256, 1.0f, a.data(), b_large.data(), 0.0f,
         c_large.data());
  };
  large();  // warm: spawns the pool's workers outside the counted region
  small();

  const uint64_t d0 = detail::pool_dispatches();
  for (int r = 0; r < 16; ++r) small();
  const uint64_t subgrain = detail::pool_dispatches() - d0;
  const uint64_t d1 = detail::pool_dispatches();
  large();
  const uint64_t above = detail::pool_dispatches() - d1;
  set_num_threads(threads_before);
  EXPECT_EQ(subgrain, 0u);
  EXPECT_GE(above, 1u);
}

}  // namespace
}  // namespace cham
