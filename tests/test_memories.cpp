// Short-term and long-term memory: Eq. 3 uncertainty, Eq. 4 selection,
// Eq. 5 prototypes, Eq. 6 divergence scores, class balancing.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/long_term_memory.h"
#include "core/short_term_memory.h"
#include "tensor/ops.h"

namespace cham {
namespace {

Tensor latent_filled(float v) {
  Tensor t({1, 2, 2, 2});
  t.fill(v);
  return t;
}

replay::ReplaySample make_sample(int64_t label, float latent_value) {
  replay::ReplaySample s;
  s.label = label;
  s.key = {static_cast<int32_t>(label), 0, 0, false};
  s.latent = latent_filled(latent_value);
  return s;
}

void insert(core::LongTermMemory& lt, const replay::ReplaySample& s,
            Rng& rng) {
  lt.insert(s.key, s.label, s.latent.shape(), s.latent.data(), rng);
}

// A short-term slot store holding `samples` in order.
replay::SlotStore st_store(const std::vector<replay::ReplaySample>& samples) {
  replay::SlotStore st(static_cast<int64_t>(samples.size()));
  Rng rng(0);  // below capacity: appends, rng unused
  for (const auto& s : samples) {
    st.random_replace_add(s.key, s.label, s.latent, rng);
  }
  return st;
}

// ------------------------------------------------------------- short-term

TEST(ShortTermMemory, UncertaintyIsTrueClassLogitMagnitude) {
  Tensor logits({2, 3});
  logits.at(0, 0) = -2.0f;
  logits.at(0, 1) = 5.0f;
  logits.at(1, 2) = 0.25f;
  std::vector<int64_t> labels = {1, 2};
  auto u = core::ShortTermMemory::uncertainty_scores(logits, labels);
  EXPECT_DOUBLE_EQ(u[0], 5.0);
  EXPECT_DOUBLE_EQ(u[1], 0.25);
}

TEST(ShortTermMemory, UncertainSamplesPreferred) {
  // All same class: selection should be driven by U^-1 (Eq. 4, beta term).
  core::ShortTermMemory st(4, {.alpha = 0.0f, .beta = 1.0f});
  core::PreferenceTracker prefs(5, 1, 1000, 0.5f);
  std::vector<int64_t> labels = {0, 0, 0};
  std::vector<double> u = {10.0, 0.1, 10.0};
  auto p = st.selection_probabilities(labels, u, prefs);
  EXPECT_GT(p[1], p[0] * 20);
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-9);
}

TEST(ShortTermMemory, PreferredClassFavoredWhenAlphaDominates) {
  core::ShortTermMemory st(4, {.alpha = 1.0f, .beta = 0.0f});
  core::PreferenceTracker prefs(5, 1, 10, 1.0f);
  // Make class 2 strongly preferred.
  for (int i = 0; i < 9; ++i) prefs.update(2);
  prefs.update(0);
  ASSERT_TRUE(prefs.is_preferred(2));
  std::vector<int64_t> labels = {0, 2, 1};
  std::vector<double> u = {1.0, 1.0, 1.0};
  auto p = st.selection_probabilities(labels, u, prefs);
  EXPECT_GT(p[1], p[0]);
  EXPECT_GT(p[1], p[2]);
}

TEST(ShortTermMemory, UpdateReplacesExactlyOneSlot) {
  core::ShortTermMemory st(3, {});
  core::PreferenceTracker prefs(5, 1, 1000, 0.5f);
  Rng rng(1);
  Tensor logits({2, 5});
  logits.fill(1.0f);

  const std::vector<replay::ReplaySample> batch = {make_sample(0, 1.0f),
                                                   make_sample(1, 2.0f)};
  const std::vector<data::ImageKey> keys = {batch[0].key, batch[1].key};
  const std::vector<int64_t> labels = {0, 1};
  const std::vector<const float*> rows = {batch[0].latent.data(),
                                          batch[1].latent.data()};
  const Shape shape = batch[0].latent.shape();
  auto update = [&] {
    st.update(keys, labels, rows, shape, logits, prefs, rng);
  };
  update();
  EXPECT_EQ(st.size(), 1);
  update();
  update();
  EXPECT_EQ(st.size(), 3);
  update();
  EXPECT_EQ(st.size(), 3);  // capacity reached: replacement, not growth
}

TEST(ShortTermMemory, ZeroWeightsFallBackToUniform) {
  core::ShortTermMemory st(2, {.alpha = 0.0f, .beta = 0.0f});
  core::PreferenceTracker prefs(3, 1, 1000, 0.5f);
  std::vector<int64_t> labels = {0, 1};
  std::vector<double> u = {1.0, 2.0};
  auto p = st.selection_probabilities(labels, u, prefs);
  EXPECT_DOUBLE_EQ(p[0], 0.5);
  EXPECT_DOUBLE_EQ(p[1], 0.5);
}

// -------------------------------------------------------------- long-term

TEST(LongTermMemory, ClassQuotaEnforced) {
  core::LongTermMemory lt(10, 5);  // quota 2 per class
  EXPECT_EQ(lt.per_class_quota(), 2);
  Rng rng(2);
  for (int i = 0; i < 8; ++i) insert(lt, make_sample(1, float(i)), rng);
  EXPECT_EQ(lt.class_count(1), 2);
  EXPECT_EQ(lt.class_count(0), 0);
}

TEST(LongTermMemory, PrototypeIsMeanLatent) {
  core::LongTermMemory lt(10, 2);
  Rng rng(3);
  insert(lt, make_sample(0, 1.0f), rng);
  insert(lt, make_sample(0, 3.0f), rng);
  auto proto = lt.prototype(0);
  ASSERT_TRUE(proto.has_value());
  for (int64_t i = 0; i < proto->numel(); ++i) {
    EXPECT_FLOAT_EQ((*proto)[i], 2.0f);
  }
  EXPECT_FALSE(lt.prototype(1).has_value());
}

TEST(LongTermMemory, DivergenceScoreIsTanhKl) {
  std::vector<float> p = {0.9f, 0.1f};
  std::vector<float> q = {0.5f, 0.5f};
  const double expected = std::tanh(ops::kl_divergence(p, q));
  EXPECT_DOUBLE_EQ(core::LongTermMemory::prototype_divergence(p, q), expected);
  // Identical distributions: zero score.
  EXPECT_DOUBLE_EQ(core::LongTermMemory::prototype_divergence(p, p), 0.0);
}

TEST(LongTermMemory, UpdateSelectsMostDivergentCandidate) {
  core::LongTermMemory lt(4, 2);  // quota 2
  Rng rng(4);
  // Seed class 0 with a prototype whose "prediction" is index 0.
  insert(lt, make_sample(0, 0.0f), rng);
  insert(lt, make_sample(0, 0.0f), rng);

  // Scorer keyed on latent fill value: value 5 -> confident wrong class.
  auto score = [](std::span<const float* const> rows) {
    Tensor probs({static_cast<int64_t>(rows.size()), 2});
    for (size_t i = 0; i < rows.size(); ++i) {
      const bool diverges = rows[i][0] > 2.0f;  // vs the prototype
      probs.at(static_cast<int64_t>(i), 0) = diverges ? 0.05f : 0.95f;
      probs.at(static_cast<int64_t>(i), 1) = diverges ? 0.95f : 0.05f;
    }
    return probs;
  };

  lt.update_from(st_store({make_sample(0, 1.0f), make_sample(0, 5.0f)}),
                 score, rng);
  // The divergent candidate (fill 5) must now be in class 0's slots.
  bool found = false;
  const replay::SlotStore& slots = lt.class_store(0);
  for (int64_t j = 0; j < slots.size(); ++j) {
    if (slots.row(j)[0] == 5.0f) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(LongTermMemory, UpdateCoversEveryStClass) {
  core::LongTermMemory lt(9, 3);
  Rng rng(5);
  auto score = [](std::span<const float* const> rows) {
    Tensor probs({static_cast<int64_t>(rows.size()), 3});
    for (int64_t i = 0; i < probs.dim(0); ++i) {
      probs.at(i, 0) = 0.34f;
      probs.at(i, 1) = 0.33f;
      probs.at(i, 2) = 0.33f;
    }
    return probs;
  };
  const replay::SlotStore st =
      st_store({make_sample(0, 1.0f), make_sample(1, 2.0f),
                make_sample(2, 3.0f), make_sample(1, 4.0f)});
  const int64_t updated = lt.update_from(st, score, rng);
  EXPECT_EQ(updated, 3);
  EXPECT_EQ(lt.class_count(0), 1);
  EXPECT_EQ(lt.class_count(1), 1);
  EXPECT_EQ(lt.class_count(2), 1);
}

TEST(LongTermMemory, SampleReturnsDistinctEntries) {
  core::LongTermMemory lt(12, 3);
  Rng rng(6);
  for (int64_t c = 0; c < 3; ++c) {
    for (int i = 0; i < 4; ++i) {
      insert(lt, make_sample(c, float(c * 10 + i)), rng);
    }
  }
  auto picked = lt.sample_refs(6, rng);
  EXPECT_EQ(picked.size(), 6u);
  std::set<const float*> unique;
  for (const auto& ref : picked) unique.insert(lt.entry(ref).row);
  EXPECT_EQ(unique.size(), picked.size());
}

TEST(LongTermMemory, SampleFromEmptyIsEmpty) {
  core::LongTermMemory lt(10, 5);
  Rng rng(7);
  EXPECT_TRUE(lt.sample_refs(3, rng).empty());
}

}  // namespace
}  // namespace cham
