// MobileNetV1 structure, latent split, SGD, parameter I/O, Sequential.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/mobilenet.h"
#include "nn/model_io.h"
#include "nn/sequential.h"
#include "nn/sgd.h"
#include "tensor/ops.h"
#include "util/tmp_path.h"

namespace cham {
namespace {

nn::MobileNetConfig tiny_cfg() {
  nn::MobileNetConfig cfg;
  cfg.input_hw = 32;
  cfg.width_mult = 0.25f;
  cfg.num_classes = 7;
  return cfg;
}

TEST(MobileNet, Has27ConvLayers) {
  Rng rng(1);
  auto m = nn::build_mobilenet_v1(tiny_cfg(), rng);
  EXPECT_EQ(m.conv_layer_count(), 27);  // 1 + 13 * 2, paper numbering
}

TEST(MobileNet, ForwardShape) {
  Rng rng(2);
  auto m = nn::build_mobilenet_v1(tiny_cfg(), rng);
  Tensor x({2, 3, 32, 32});
  ops::fill_normal(x, rng, 0.0f, 1.0f);
  Tensor y = m.net->forward(x, false);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 7);
}

TEST(MobileNet, SpatialDownsamplingSchedule) {
  Rng rng(3);
  auto m = nn::build_mobilenet_v1(tiny_cfg(), rng);
  // Five stride-2 stages: 32 -> 16 -> 8 -> 4 -> 2 -> 1.
  EXPECT_EQ(m.shape_after(1)[1], 16);   // after conv1 (s2)
  EXPECT_EQ(m.shape_after(27)[1], 1);   // final feature map
  EXPECT_EQ(m.shape_after(21)[1], 2);   // the paper's latent layer
}

TEST(MobileNet, SplitAtLatentLayerPreservesFunction) {
  Rng rng(4);
  auto cfg = tiny_cfg();
  auto full = nn::build_mobilenet_v1(cfg, rng);
  Tensor x({1, 3, 32, 32});
  Rng xrng(5);
  ops::fill_normal(x, xrng, 0.0f, 1.0f);
  const Tensor y_full = full.net->forward(x, false);

  Rng rng2(4);  // identical weights via identical seed
  auto rebuilt = nn::build_mobilenet_v1(cfg, rng2);
  auto split = nn::split_at_conv_layer(std::move(rebuilt), 21);
  const Tensor z = split.f->forward(x, false);
  EXPECT_EQ(z.shape(), (Shape{{1, split.latent_shape[0],
                               split.latent_shape[1],
                               split.latent_shape[2]}}));
  const Tensor y_split = split.g->forward(z, false);
  EXPECT_LT(ops::max_abs_diff(y_full, y_split), 1e-5);
}

TEST(MobileNet, MacsPositiveAndSplitAdditive) {
  Rng rng(6);
  auto full = nn::build_mobilenet_v1(tiny_cfg(), rng);
  const int64_t total = full.net->macs_per_sample();
  auto split = nn::split_at_conv_layer(std::move(full), 21);
  EXPECT_GT(total, 0);
  EXPECT_EQ(split.f->macs_per_sample() + split.g->macs_per_sample(), total);
  // The frozen part dominates (the motivation for latent replay).
  EXPECT_GT(split.f->macs_per_sample(), split.g->macs_per_sample());
}

TEST(MobileNet, WidthMultiplierScalesParams) {
  Rng rng(7);
  auto narrow_cfg = tiny_cfg();
  auto wide_cfg = tiny_cfg();
  wide_cfg.width_mult = 1.0f;
  auto narrow = nn::build_mobilenet_v1(narrow_cfg, rng);
  auto wide = nn::build_mobilenet_v1(wide_cfg, rng);
  EXPECT_GT(wide.net->param_count(), 4 * narrow.net->param_count());
}

TEST(MobileNet, CopyParamsReproducesOutputs) {
  Rng rng_a(8), rng_b(9);
  auto a = nn::build_mobilenet_v1(tiny_cfg(), rng_a);
  auto b = nn::build_mobilenet_v1(tiny_cfg(), rng_b);
  Tensor x({1, 3, 32, 32});
  Rng xrng(10);
  ops::fill_normal(x, xrng, 0.0f, 1.0f);
  EXPECT_GT(ops::max_abs_diff(a.net->forward(x, false),
                              b.net->forward(x, false)),
            1e-4);
  nn::copy_params(*a.net, *b.net);
  EXPECT_LT(ops::max_abs_diff(a.net->forward(x, false),
                              b.net->forward(x, false)),
            1e-6);
}

TEST(MobileNet, CopyExceptClassifierSkipsFc) {
  auto cfg_a = tiny_cfg();
  auto cfg_b = tiny_cfg();
  cfg_b.num_classes = 13;  // different classifier width
  Rng ra(11), rb(12);
  auto a = nn::build_mobilenet_v1(cfg_a, ra);
  auto b = nn::build_mobilenet_v1(cfg_b, rb);
  nn::copy_params_except_classifier(*a.net, *b.net);
  Tensor x({1, 3, 32, 32});
  Rng xrng(13);
  ops::fill_normal(x, xrng, 0.0f, 1.0f);
  Tensor y = b.net->forward(x, false);
  EXPECT_EQ(y.dim(1), 13);
}

TEST(ModelIo, RoundTripsExactly) {
  Rng rng(14);
  auto a = nn::build_mobilenet_v1(tiny_cfg(), rng);
  const std::string path = util::tmp_path("test_model_io");
  ASSERT_TRUE(nn::save_params(*a.net, path));

  Rng rng2(15);
  auto b = nn::build_mobilenet_v1(tiny_cfg(), rng2);
  ASSERT_TRUE(nn::load_params(*b.net, path));
  Tensor x({1, 3, 32, 32});
  Rng xrng(16);
  ops::fill_normal(x, xrng, 0.0f, 1.0f);
  EXPECT_EQ(ops::max_abs_diff(a.net->forward(x, false),
                              b.net->forward(x, false)),
            0.0);
  std::remove(path.c_str());
}

TEST(ModelIo, RejectsWrongArchitecture) {
  Rng rng(17);
  auto a = nn::build_mobilenet_v1(tiny_cfg(), rng);
  const std::string path = util::tmp_path("test_model_io2");
  ASSERT_TRUE(nn::save_params(*a.net, path));
  auto other_cfg = tiny_cfg();
  other_cfg.width_mult = 1.0f;
  auto b = nn::build_mobilenet_v1(other_cfg, rng);
  EXPECT_FALSE(nn::load_params(*b.net, path));
  EXPECT_FALSE(nn::load_params(*a.net, "/tmp/does_not_exist.bin"));
  std::remove(path.c_str());
}

// 50 full-batch SGD steps of softmax cross-entropy on a Linear layer,
// checked step by step against an independent double-precision descent
// from the same initial weights (a fixed loss-ratio bar says nothing about
// whether the library descends correctly; this pins every step's loss).
TEST(Sgd, GradientDescentReducesLoss) {
  Rng rng(18);
  nn::Sequential net;
  net.add(std::make_unique<nn::Linear>(4, 3, rng));
  nn::Sgd opt(net.params(), 0.1f);

  constexpr int64_t kN = 8, kIn = 4, kOut = 3;
  Tensor x({kN, kIn});
  ops::fill_normal(x, rng, 0.0f, 1.0f);
  std::vector<int64_t> labels = {0, 1, 2, 0, 1, 2, 0, 1};

  // Reference state: W (out x in) and b, copied from the library's init.
  const auto params = net.params();
  std::vector<double> w(params[0]->value.data(),
                        params[0]->value.data() + kOut * kIn);
  std::vector<double> b(params[1]->value.data(),
                        params[1]->value.data() + kOut);
  const auto ref_step = [&] {
    std::vector<double> dw(w.size(), 0.0), db(b.size(), 0.0);
    double loss = 0;
    for (int64_t n = 0; n < kN; ++n) {
      double z[kOut], zmax = -1e300;
      for (int64_t j = 0; j < kOut; ++j) {
        z[j] = b[static_cast<size_t>(j)];
        for (int64_t i = 0; i < kIn; ++i) {
          z[j] += w[static_cast<size_t>(j * kIn + i)] * x.at(n, i);
        }
        zmax = std::max(zmax, z[j]);
      }
      double sum = 0;
      for (double& v : z) sum += (v = std::exp(v - zmax));
      const int64_t y = labels[static_cast<size_t>(n)];
      loss -= std::log(z[y] / sum);
      for (int64_t j = 0; j < kOut; ++j) {
        const double g = (z[j] / sum - (j == y ? 1.0 : 0.0)) / kN;
        db[static_cast<size_t>(j)] += g;
        for (int64_t i = 0; i < kIn; ++i) {
          dw[static_cast<size_t>(j * kIn + i)] += g * x.at(n, i);
        }
      }
    }
    for (size_t k = 0; k < w.size(); ++k) w[k] -= 0.1 * dw[k];
    for (size_t k = 0; k < b.size(); ++k) b[k] -= 0.1 * db[k];
    return loss / kN;
  };

  double first_ref = 0, last_ref = 0;
  for (int step = 0; step < 50; ++step) {
    opt.zero_grad();
    Tensor logits = net.forward(x, true);
    auto loss = nn::softmax_cross_entropy(logits, labels);
    net.backward(loss.grad);
    opt.step();
    const double ref = ref_step();
    EXPECT_NEAR(loss.loss, ref, 1e-5 * ref) << "step " << step;
    if (step == 0) first_ref = ref;
    last_ref = ref;
  }
  EXPECT_LT(last_ref, first_ref);
  for (size_t k = 0; k < w.size(); ++k) {
    EXPECT_NEAR(params[0]->value[static_cast<int64_t>(k)], w[k], 1e-5);
  }
  for (size_t k = 0; k < b.size(); ++k) {
    EXPECT_NEAR(params[1]->value[static_cast<int64_t>(k)], b[k], 1e-5);
  }
}

TEST(Sgd, MomentumAcceleratesOnQuadratic) {
  // Single scalar parameter, constant gradient towards zero: momentum must
  // move further than plain SGD after a few steps.
  auto make_param = [] {
    nn::Param p(Shape{{1}});
    p.value[0] = 1.0f;
    return p;
  };
  nn::Param plain = make_param(), heavy = make_param();
  nn::Sgd opt_plain({&plain}, 0.1f, 0.0f);
  nn::Sgd opt_heavy({&heavy}, 0.1f, 0.9f);
  for (int i = 0; i < 5; ++i) {
    plain.zero_grad();  // each step releases the gradient it applied
    heavy.zero_grad();
    plain.grad[0] = plain.value[0];
    heavy.grad[0] = heavy.value[0];
    opt_plain.step();
    opt_heavy.step();
  }
  EXPECT_LT(heavy.value[0], plain.value[0]);
}

TEST(Sgd, WeightDecayShrinksWeights) {
  nn::Param p(Shape{{1}});
  p.value[0] = 1.0f;
  nn::Sgd opt({&p}, 0.1f, 0.0f, 0.5f);
  p.zero_grad();
  opt.step();  // pure decay: w -= lr * wd * w
  EXPECT_FLOAT_EQ(p.value[0], 1.0f - 0.1f * 0.5f);
}

// ------------------------------------------------- gradient lifetime

// A small net with every parameterised layer kind: a 3x3 conv with bias,
// BN, a depthwise conv, a pointwise conv, GAP and Linear.
std::unique_ptr<nn::Sequential> make_grad_net(uint64_t seed) {
  Rng rng(seed);
  auto net = std::make_unique<nn::Sequential>();
  net->add(std::make_unique<nn::Conv2d>(3, 4, 4, 4, 3, 1, 1, true, rng));
  net->add(std::make_unique<nn::BatchNorm2d>(4));
  net->add(std::make_unique<nn::ReLU>(6.0f));
  net->add(std::make_unique<nn::DepthwiseConv2d>(4, 4, 4, 3, 2, 1, rng));
  net->add(std::make_unique<nn::Conv2d>(4, 5, 2, 2, 1, 1, 0, false, rng));
  net->add(std::make_unique<nn::GlobalAvgPool>());
  net->add(std::make_unique<nn::Linear>(5, 3, rng));
  return net;
}

Tensor random_tensor(Shape shape, uint64_t seed) {
  Tensor t(shape);
  Rng rng(seed);
  ops::fill_normal(t, rng, 0.0f, 1.0f);
  return t;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// A constructed Param holds no gradient, and a backward with no zero_grad
// before it binds one and accumulates from zero: every layer's gradients
// equal those of the same backward after zero_grad, bit for bit.
TEST(GradLifetime, BackwardWithoutZeroGradAccumulatesFromZero) {
  auto fresh = make_grad_net(61);
  auto zeroed = make_grad_net(61);
  for (nn::Param* p : fresh->params()) {
    EXPECT_TRUE(p->grad.empty()) << "a constructed Param holds a gradient";
  }
  for (nn::Param* p : zeroed->params()) p->zero_grad();
  const Tensor x = random_tensor(Shape{{3, 3, 4, 4}}, 62);
  const Tensor out = fresh->forward(x, /*train=*/true);
  (void)zeroed->forward(x, /*train=*/true);
  const Tensor dy = random_tensor(out.shape(), 63);
  (void)fresh->backward(dy);
  (void)zeroed->backward(dy);
  const auto pf = fresh->params();
  const auto pz = zeroed->params();
  ASSERT_EQ(pf.size(), pz.size());
  for (size_t i = 0; i < pf.size(); ++i) {
    ASSERT_FALSE(pf[i]->grad.empty()) << "param " << i << " got no gradient";
    EXPECT_EQ(pf[i]->grad.shape(), pf[i]->value.shape()) << "param " << i;
    EXPECT_TRUE(same_bits(pf[i]->grad, pz[i]->grad)) << "param " << i;
  }
}

// DER's pattern: zero_grad, two forward/backward pairs, one step. The
// second backward must add onto the first's gradients, and the step must
// apply their sum once and release every gradient.
TEST(GradLifetime, TwoBackwardsThenOneStepApplyTheSum) {
  constexpr float kLr = 0.5f;
  const Tensor x1 = random_tensor(Shape{{2, 3, 4, 4}}, 71);
  const Tensor x2 = random_tensor(Shape{{3, 3, 4, 4}}, 72);
  const Tensor dy1 = random_tensor(Shape{{2, 3}}, 73);
  const Tensor dy2 = random_tensor(Shape{{3, 3}}, 74);
  // Each pass's gradients alone, on its own copy of the net.
  const auto grads_of = [&](const Tensor& x, const Tensor& dy) {
    auto net = make_grad_net(70);
    (void)net->forward(x, /*train=*/true);
    (void)net->backward(dy);
    std::vector<Tensor> out;
    for (nn::Param* p : net->params()) out.push_back(p->grad);
    return out;
  };
  const std::vector<Tensor> g1 = grads_of(x1, dy1);
  const std::vector<Tensor> g2 = grads_of(x2, dy2);

  auto net = make_grad_net(70);
  const auto params = net->params();
  std::vector<Tensor> w0;
  for (nn::Param* p : params) w0.push_back(p->value);
  nn::Sgd opt(params, kLr);
  opt.zero_grad();
  (void)net->forward(x1, /*train=*/true);
  (void)net->backward(dy1);
  (void)net->forward(x2, /*train=*/true);
  (void)net->backward(dy2);
  opt.step();
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(params[i]->grad.empty()) << "step kept param " << i;
    for (int64_t j = 0; j < params[i]->numel(); ++j) {
      const float sum = g1[i][j] + g2[i][j];
      const float expected = w0[i][j] - kLr * sum;
      EXPECT_NEAR(params[i]->value[j], expected,
                  1e-5f * (1.0f + std::abs(kLr * sum)))
          << "param " << i << " element " << j;
    }
  }
}

// The per-layer apply through Sequential::backward's hook equals
// zero_grad, a whole backward and one whole-model step, bit for bit, with
// at most one layer's gradients bound at any time.
TEST(GradLifetime, PerLayerApplyMatchesWholeModelStep) {
  auto layered = make_grad_net(81);
  auto whole = make_grad_net(81);
  nn::Sgd opt_layered(layered->params(), 0.05f);
  nn::Sgd opt_whole(whole->params(), 0.05f);
  const std::vector<size_t> offsets = layered->param_offsets();
  const auto lp = layered->params();
  ASSERT_EQ(offsets.back(), lp.size());
  for (int step = 0; step < 5; ++step) {
    const Tensor x = random_tensor(Shape{{4, 3, 4, 4}}, 82 + step);
    const Tensor dy = random_tensor(Shape{{4, 3}}, 92 + step);
    (void)layered->forward(x, /*train=*/true);
    (void)layered->backward(dy, [&](int64_t i) {
      const auto li = static_cast<size_t>(i);
      size_t bound = 0;
      for (nn::Param* p : lp) bound += p->grad.empty() ? 0 : 1;
      EXPECT_EQ(bound, offsets[li + 1] - offsets[li])
          << "layer " << i << ": another layer's gradient is still bound";
      opt_layered.step(offsets[li], offsets[li + 1]);
    });
    opt_whole.zero_grad();
    (void)whole->forward(x, /*train=*/true);
    (void)whole->backward(dy);
    opt_whole.step();
  }
  const auto wp = whole->params();
  for (size_t i = 0; i < lp.size(); ++i) {
    EXPECT_TRUE(lp[i]->grad.empty());
    EXPECT_TRUE(wp[i]->grad.empty());
    EXPECT_TRUE(same_bits(lp[i]->value, wp[i]->value)) << "param " << i;
  }
}

// A −0 weight whose dW products are all −0 (negative inputs, dY = 0) must
// stay −0 through one step. Accumulated into a zeroed gradient the
// products sum to +0 + (−0) = +0, and −0 − lr·(+0) = −0. A dW kernel that
// wrote a sum seeded with its first product would leave −0, and
// −0 − lr·(−0) = +0: the sign bit would flip and the learner's output bits
// with it. A change to how dW reaches the gradient has to pass this or
// re-baseline on purpose.
TEST(SgdExact, NegativeZeroWeightKeepsSignUnderZeroGradient) {
  Rng rng(101);
  nn::Conv2d pointwise(2, 3, 2, 2, 1, 1, 0, /*bias=*/false, rng);
  nn::Linear fc(4, 3, rng);
  const std::vector<std::pair<nn::Layer*, Shape>> cases = {
      {&pointwise, Shape{{2, 2, 2, 2}}}, {&fc, Shape{{2, 4}}}};
  for (const auto& [layer, in_shape] : cases) {
    nn::Param* w = layer->params()[0];
    w->value.fill(-0.0f);
    nn::Sgd opt(layer->params(), 0.1f);
    opt.zero_grad();
    const Shape out =
        layer->forward(Tensor::full(in_shape, -1.5f), /*train=*/true).shape();
    (void)layer->backward(Tensor(out));  // dY = 0
    opt.step();
    for (int64_t j = 0; j < w->numel(); ++j) {
      EXPECT_EQ(std::bit_cast<uint32_t>(w->value[j]), 0x80000000u)
          << layer->name() << " weight " << j << " lost its sign";
    }
  }
}

#if defined(__SANITIZE_ADDRESS__)
// Sgd::step gives each gradient back to the workspace pool, which poisons
// parked blocks under AddressSanitizer: a write through a pointer kept from
// before the step must be reported, not land in the next owner's buffer.
TEST(GradLifetime, WriteIntoReleasedGradientIsReported) {
  // The thread pool may be running: re-exec the binary for the death test
  // rather than fork a threaded process.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  nn::Param p(Shape{{64}});
  nn::Sgd opt({&p}, 0.1f);
  volatile float* stale = p.grad_data();
  opt.step();
  ASSERT_TRUE(p.grad.empty());
  EXPECT_DEATH(stale[0] = 1.0f, "use-after-poison");
}
#endif

TEST(Sequential, SliceMovesLayers) {
  Rng rng(19);
  nn::Sequential seq;
  seq.add(std::make_unique<nn::Linear>(4, 4, rng));
  seq.add(std::make_unique<nn::Linear>(4, 4, rng));
  seq.add(std::make_unique<nn::Linear>(4, 2, rng));
  auto tail = seq.slice(2, 3);
  EXPECT_EQ(seq.size(), 2);
  EXPECT_EQ(tail->size(), 1);
}

TEST(BatchNorm, FrozenStatsIgnoreBatch) {
  nn::BatchNorm2d bn(2);
  bn.set_track_running_stats(false);
  Tensor x({4, 2, 3, 3});
  Rng rng(20);
  ops::fill_normal(x, rng, 5.0f, 2.0f);  // far from running stats (0, 1)
  Tensor y_train = bn.forward(x, true);
  Tensor y_eval = bn.forward(x, false);
  // Frozen stats: train and eval forward identical.
  EXPECT_LT(ops::max_abs_diff(y_train, y_eval), 1e-6);
  EXPECT_NEAR(bn.running_mean()[0], 0.0f, 1e-6);
}

TEST(BatchNorm, TrackedStatsMoveTowardBatch) {
  nn::BatchNorm2d bn(1, /*momentum=*/0.5f);
  Tensor x({2, 1, 2, 2});
  x.fill(4.0f);
  bn.forward(x, true);
  EXPECT_NEAR(bn.running_mean()[0], 2.0f, 1e-5);  // 0.5*0 + 0.5*4
}

}  // namespace
}  // namespace cham
