// Contract-layer tests: CHAM_CHECK failures are catchable CheckErrors, the
// full-checks tier traps out-of-range tensor access, and the structural
// audits on the replay-path components (LT, ST, PreferenceTracker, OpStats)
// detect seeded corruption. Tests of tier-gated macros skip themselves when
// the tier compiles the macro out, so the suite stays green under
// -DCHAM_CHECKS=off|cheap|full alike.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/long_term_memory.h"
#include "core/op_stats.h"
#include "core/preference_tracker.h"
#include "core/short_term_memory.h"
#include "nn/layers.h"
#include "nn/sequential.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "util/check.h"

namespace cham {
namespace {

replay::ReplaySample make_sample(int64_t label, float fill) {
  replay::ReplaySample s;
  s.label = label;
  s.latent = Tensor::full(Shape{{1, 2, 2, 2}}, fill);
  return s;
}

TEST(Contracts, CheckThrowsCatchableLogicError) {
#if CHAM_CHECKS_LEVEL >= 1
  EXPECT_THROW(CHAM_CHECK(false, "forced failure"), util::CheckError);
  // CheckError derives from std::logic_error and carries the message, the
  // condition text, and the source location.
  try {
    CHAM_CHECK(1 == 2, "ledger out of balance");
    FAIL() << "CHAM_CHECK(false) did not throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ledger out of balance"), std::string::npos) << what;
    EXPECT_NE(what.find("1 == 2"), std::string::npos) << what;
  }
#else
  GTEST_SKIP() << "checks compiled out (-DCHAM_CHECKS=off)";
#endif
}

TEST(Contracts, TensorConstructionAndShapeContracts) {
#if CHAM_CHECKS_LEVEL >= 1
  // Data size must match the shape's numel.
  EXPECT_THROW(Tensor(Shape{{2, 3}}, std::vector<float>(5, 0.0f)),
               util::CheckError);
  // In-place arithmetic rejects shape mismatches (CHAM_CHECK_SHAPE).
  Tensor a{{2, 2}};
  Tensor b{{2, 3}};
  EXPECT_THROW(a += b, util::CheckError);
  EXPECT_THROW(a -= b, util::CheckError);
  // reshaped() must preserve numel.
  EXPECT_THROW((void)a.reshaped(Shape{{5}}), util::CheckError);
#else
  GTEST_SKIP() << "checks compiled out (-DCHAM_CHECKS=off)";
#endif
}

// Backward reads grad_out through raw pointers sized by the last train-mode
// forward, so a grad whose batch or geometry differs must be refused, not
// read out of bounds. Each case: the matching shape passes, then another
// batch and another channel count are rejected. Backward consumes its
// forward's state, so each backward gets a train forward of its own.
template <typename L>
void expect_grad_shape_checked(L& layer, const Tensor& x, Shape good,
                               Shape other_batch, Shape other_channels) {
  (void)layer.forward(x, /*train=*/true);
  EXPECT_NO_THROW((void)layer.backward(Tensor(good)));
  (void)layer.forward(x, /*train=*/true);
  EXPECT_THROW((void)layer.backward(Tensor(other_batch)), util::CheckError);
  (void)layer.forward(x, /*train=*/true);
  EXPECT_THROW((void)layer.backward(Tensor(other_channels)),
               util::CheckError);
}

TEST(Contracts, Conv2dBackwardChecksGradShape) {
#if CHAM_CHECKS_LEVEL >= 1
  Rng rng(3);
  nn::Conv2d conv(4, 6, 5, 5, 3, 2, 1, true, rng);
  expect_grad_shape_checked(conv, Tensor({3, 4, 5, 5}), Shape{{3, 6, 3, 3}},
                            Shape{{4, 6, 3, 3}}, Shape{{3, 5, 3, 3}});
  nn::Conv2d pointwise(4, 6, 2, 2, 1, 1, 0, false, rng);
  expect_grad_shape_checked(pointwise, Tensor({3, 4, 2, 2}),
                            Shape{{3, 6, 2, 2}}, Shape{{5, 6, 2, 2}},
                            Shape{{3, 6, 1, 2}});
#else
  GTEST_SKIP() << "checks compiled out (-DCHAM_CHECKS=off)";
#endif
}

TEST(Contracts, DepthwiseConv2dBackwardChecksGradShape) {
#if CHAM_CHECKS_LEVEL >= 1
  Rng rng(4);
  nn::DepthwiseConv2d dw(4, 4, 4, 3, 1, 1, rng);
  expect_grad_shape_checked(dw, Tensor({2, 4, 4, 4}), Shape{{2, 4, 4, 4}},
                            Shape{{3, 4, 4, 4}}, Shape{{2, 3, 4, 4}});
#else
  GTEST_SKIP() << "checks compiled out (-DCHAM_CHECKS=off)";
#endif
}

TEST(Contracts, GlobalAvgPoolBackwardChecksGradShape) {
#if CHAM_CHECKS_LEVEL >= 1
  nn::GlobalAvgPool gap;
  expect_grad_shape_checked(gap, Tensor({2, 5, 2, 2}), Shape{{2, 5}},
                            Shape{{3, 5}}, Shape{{2, 4}});
#else
  GTEST_SKIP() << "checks compiled out (-DCHAM_CHECKS=off)";
#endif
}

TEST(Contracts, LinearBackwardChecksGradShape) {
#if CHAM_CHECKS_LEVEL >= 1
  Rng rng(5);
  nn::Linear fc(8, 3, rng);
  expect_grad_shape_checked(fc, Tensor({4, 8}), Shape{{4, 3}}, Shape{{5, 3}},
                            Shape{{4, 2}});
  // Without any train-mode forward there is no batch to match.
  nn::Linear fresh(8, 3, rng);
  EXPECT_THROW((void)fresh.backward(Tensor({1, 3})), util::CheckError);
#else
  GTEST_SKIP() << "checks compiled out (-DCHAM_CHECKS=off)";
#endif
}

// One backward per train forward: the backward releases the forward's
// state (row pointers, input copy, x-hat, mask), so a second backward of
// the same gradient shape is refused instead of re-reading rows the caller
// no longer keeps alive. A new train forward makes backward legal again.
#if CHAM_CHECKS_LEVEL >= 1
void expect_second_backward_refused(nn::Layer& layer, const Tensor& x) {
  const Shape out = layer.forward(x, /*train=*/true).shape();
  EXPECT_NO_THROW((void)layer.backward(Tensor(out))) << layer.name();
  EXPECT_THROW((void)layer.backward(Tensor(out)), util::CheckError)
      << layer.name();
  (void)layer.forward(x, /*train=*/true);
  EXPECT_NO_THROW((void)layer.backward(Tensor(out))) << layer.name();
}
#endif

TEST(Contracts, SecondBackwardWithoutForwardIsRefused) {
#if CHAM_CHECKS_LEVEL >= 1
  Rng rng(6);
  nn::Conv2d conv(4, 6, 5, 5, 3, 2, 1, true, rng);
  expect_second_backward_refused(conv, Tensor({3, 4, 5, 5}));
  nn::Conv2d pointwise(4, 6, 2, 2, 1, 1, 0, false, rng);
  expect_second_backward_refused(pointwise, Tensor({3, 4, 2, 2}));
  nn::DepthwiseConv2d dw(4, 4, 4, 3, 1, 1, rng);
  expect_second_backward_refused(dw, Tensor({2, 4, 4, 4}));
  nn::BatchNorm2d bn(4);
  expect_second_backward_refused(bn, Tensor::full(Shape{{2, 4, 3, 3}}, 0.5f));
  nn::ReLU relu(6.0f);
  expect_second_backward_refused(relu, Tensor::full(Shape{{2, 4, 3, 3}}, 1.0f));
  nn::GlobalAvgPool gap;
  expect_second_backward_refused(gap, Tensor({2, 5, 2, 2}));
  nn::Linear fc(8, 3, rng);
  expect_second_backward_refused(fc, Tensor({4, 8}));
#else
  GTEST_SKIP() << "checks compiled out (-DCHAM_CHECKS=off)";
#endif
}

// A head always starts with a GatherLayer (split_at_conv_layer cuts at a
// unit end, after a ReLU), so forward_gather is refused, not stacked into a
// dense copy, for a pipeline that starts anywhere else. The failure names
// the layer that cannot take the rows.
#if CHAM_CHECKS_LEVEL >= 1
void expect_gather_refused(nn::Sequential& net, const std::string& culprit) {
  std::vector<float> sample(2 * 3 * 3, 1.0f);
  const float* row = sample.data();
  const nn::GatherBatch gb{&row, 1, Shape{{2, 3, 3}}};
  for (bool train : {false, true}) {
    try {
      (void)net.forward_gather(gb, train);
      ADD_FAILURE() << culprit << " accepted a gathered batch";
    } catch (const util::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(culprit), std::string::npos)
          << e.what();
    }
  }
}
#endif

TEST(Contracts, ForwardGatherRefusesPipelinesWithoutAGatherFirstLayer) {
#if CHAM_CHECKS_LEVEL >= 1
  nn::Sequential bn_first;
  bn_first.add(std::make_unique<nn::BatchNorm2d>(2));
  bn_first.add(std::make_unique<nn::ReLU>(6.0f));
  expect_gather_refused(bn_first, "BatchNorm2d");

  nn::Sequential relu_first;
  relu_first.add(std::make_unique<nn::ReLU>(6.0f));
  relu_first.add(std::make_unique<nn::GlobalAvgPool>());
  expect_gather_refused(relu_first, "ReLU6");

  nn::Sequential empty;
  expect_gather_refused(empty, "empty Sequential");

  // Control: the same batch is accepted once a GatherLayer leads.
  Rng rng(6);
  nn::Sequential conv_first;
  conv_first.add(
      std::make_unique<nn::Conv2d>(2, 4, 3, 3, 1, 1, 0, false, rng));
  conv_first.add(std::make_unique<nn::BatchNorm2d>(4));
  std::vector<float> sample(2 * 3 * 3, 1.0f);
  const float* row = sample.data();
  const nn::GatherBatch gb{&row, 1, Shape{{2, 3, 3}}};
  EXPECT_EQ(conv_first.forward_gather(gb, /*train=*/false).shape(),
            (Shape{{1, 4, 3, 3}}));
#else
  GTEST_SKIP() << "checks compiled out (-DCHAM_CHECKS=off)";
#endif
}

TEST(Contracts, OutOfRangeAccessCaughtInFullMode) {
#if CHAM_CHECKS_LEVEL >= 2
  Tensor t{{2, 3}};
  EXPECT_THROW((void)t[6], util::CheckError);
  EXPECT_THROW((void)t[-1], util::CheckError);
  EXPECT_THROW((void)t.at(2, 0), util::CheckError);
  EXPECT_THROW((void)t.at(0, 3), util::CheckError);
  EXPECT_THROW((void)t.at(0, -1), util::CheckError);
  EXPECT_THROW((void)t.row(2), util::CheckError);
  const Tensor& ct = t;
  EXPECT_THROW((void)ct[100], util::CheckError);
  Tensor u{{1, 2, 2, 2}};
  EXPECT_THROW((void)u.at(0, 2, 0, 0), util::CheckError);
  EXPECT_THROW((void)u.at(0, 0, 0, 2), util::CheckError);
  // Rank contract: 2-D accessor on a 4-D tensor.
  EXPECT_THROW((void)u.at(0, 0), util::CheckError);
  // In-range access still works and is the same storage.
  t.at(1, 2) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);
#else
  GTEST_SKIP() << "per-element bounds checks require -DCHAM_CHECKS=full";
#endif
}

TEST(Contracts, FiniteScanTrapsNanInFullMode) {
#if CHAM_CHECKS_LEVEL >= 2
  std::vector<float> v = {1.0f, 2.0f,
                          std::numeric_limits<float>::quiet_NaN(), 4.0f};
  try {
    CHAM_CHECK_FINITE(std::span<const float>(v), "unit-test gradient");
    FAIL() << "CHAM_CHECK_FINITE accepted a NaN";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unit-test gradient"), std::string::npos) << what;
    EXPECT_NE(what.find("index 2"), std::string::npos) << what;
  }
  std::vector<float> clean = {0.0f, -1.0f, 1e30f};
  EXPECT_NO_THROW(
      CHAM_CHECK_FINITE(std::span<const float>(clean), "clean span"));
#else
  GTEST_SKIP() << "finite scans require -DCHAM_CHECKS=full";
#endif
}

// The audits are plain methods, independent of the check tier: corrupting
// the LT's redundant prototype sum (Eq. 5 numerator) and its cached
// per-class count must both be reported.
TEST(Contracts, LongTermAuditDetectsSeededCorruption) {
  Rng rng(7);
  core::LongTermMemory lt(/*capacity=*/8, /*num_classes=*/4);
  for (int i = 0; i < 6; ++i) {
    const auto s = make_sample(i % 3, 0.5f + static_cast<float>(i));
    lt.insert(s.key, s.label, s.latent.shape(), s.latent.data(), rng);
  }
  ASSERT_TRUE(lt.check_invariants().ok())
      << lt.check_invariants().to_string();

  lt.mutable_prototype_sum_for_test(0)[0] += 1.0;  // damage Eq. 5 numerator
  lt.mutable_cached_count_for_test(1) += 2;        // damage occupancy count
  const util::AuditReport report = lt.check_invariants();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.mentions("prototype diverges")) << report.to_string();
  EXPECT_TRUE(report.mentions("cached count")) << report.to_string();
  EXPECT_GE(report.violations.size(), 2u) << report.to_string();
}

TEST(Contracts, LongTermInsertKeepsAuditStateThroughReplacement) {
  Rng rng(11);
  core::LongTermMemory lt(/*capacity=*/4, /*num_classes=*/2);
  // 2x the per-class quota of inserts exercises the replacement path, which
  // must subtract the victim from the running prototype sum.
  for (int i = 0; i < 8; ++i) {
    const auto s = make_sample(i % 2, static_cast<float>(i));
    lt.insert(s.key, s.label, s.latent.shape(), s.latent.data(), rng);
  }
  EXPECT_EQ(lt.size(), 4);
  EXPECT_TRUE(lt.check_invariants().ok()) << lt.check_invariants().to_string();
}

TEST(Contracts, ShortTermAuditDetectsCorruptStore) {
  core::ShortTermMemory st(/*capacity=*/4, core::StSamplingConfig{});
  Rng rng(5);
  const auto s0 = make_sample(0, 1.0f);
  const auto s1 = make_sample(1, 2.0f);
  st.store().random_replace_add(s0.key, s0.label, s0.latent, rng);
  st.store().random_replace_add(s1.key, s1.label, s1.latent, rng);
  ASSERT_TRUE(st.check_invariants().ok())
      << st.check_invariants().to_string();

  // A stream counter below the occupancy means some path bypassed the
  // insert funnel (the slab design makes dangling per-slot latents
  // structurally impossible, so the counters and labels are the remaining
  // corruption surface).
  st.store().set_seen(1);
  const util::AuditReport seen_report = st.check_invariants();
  EXPECT_FALSE(seen_report.ok());
  EXPECT_TRUE(seen_report.mentions("below occupancy"))
      << seen_report.to_string();
  st.store().set_seen(2);

  const auto bad = make_sample(-3, 4.0f);
  st.store().random_replace_add(bad.key, bad.label, bad.latent, rng);
  const util::AuditReport label_report = st.check_invariants();
  EXPECT_FALSE(label_report.ok());
  EXPECT_TRUE(label_report.mentions("negative label"))
      << label_report.to_string();
}

TEST(Contracts, PreferenceTrackerAuditCleanOnDrivenStream) {
  core::PreferenceTracker pt(/*num_classes=*/6, /*top_k=*/3,
                             /*learning_window=*/50, /*rho=*/0.5f);
  Rng rng(3);
  // Mid-window sample count (337 = 6 windows + 37) checks the audit holds
  // both right after recalibration and with a partially filled window.
  for (int i = 0; i < 337; ++i) pt.update(rng.uniform_int(6));
  EXPECT_TRUE(pt.check_invariants().ok()) << pt.check_invariants().to_string();
  EXPECT_EQ(pt.samples_seen() >= 300, true);
}

TEST(Contracts, OpStatsLedgerAcceptsBalancedChargesRejectsImbalance) {
  core::OpStats s;
  s.charge_onchip_st_replay(128.0);
  s.charge_onchip_st_write(64.0);
  s.charge_onchip_st_promote(8.0);
  s.charge_offchip_lt_burst(256.0);
  s.charge_offchip_proto(32.0);
  s.charge_offchip_lt_write(16.0);
  EXPECT_TRUE(s.check_invariants().ok()) << s.check_invariants().to_string();
  EXPECT_EQ(s.onchip_component_sum(), s.onchip_bytes);
  EXPECT_EQ(s.offchip_component_sum(), s.offchip_bytes);

  // A component charged past its total is an audit violation...
  core::OpStats bad = s;
  bad.onchip_st_replay_bytes += 1000.0;
  EXPECT_TRUE(bad.check_invariants().mentions("exceed onchip_bytes"));
  // ...as is any negative counter.
  core::OpStats neg;
  neg.weight_bytes = -1.0;
  EXPECT_TRUE(neg.check_invariants().mentions("weight_bytes negative"));
  // Learners that never charge components (baselines) are still clean.
  core::OpStats baseline;
  baseline.onchip_bytes = 512.0;
  baseline.offchip_bytes = 1024.0;
  EXPECT_TRUE(baseline.check_invariants().ok());
}

}  // namespace
}  // namespace cham
