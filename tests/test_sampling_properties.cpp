// Parameterized property tests for the paper's sampling equations:
// Eq. 2 monotonicity in rho and skew, Eq. 4 normalisation/limits across the
// alpha-beta grid, Eq. 6 score range, and buffer-policy invariants across
// capacities.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/long_term_memory.h"
#include "core/preference_tracker.h"
#include "core/short_term_memory.h"
#include "replay/buffer.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace cham {
namespace {

// ------------------------------------------ uniform_int bias regression

// With n = 3 * 2^61 the old `next_u64() % n` maps 2^64 source values onto
// [0, n) unevenly: 2^64 = 2n + 2^62, so the bottom 2^62 outputs are hit
// three times and the rest twice — a 1.5x density step across the range
// that a six-bin chi-square detects instantly (chi2 ~ 900 at 30k draws).
// Lemire's rejection method is exactly uniform for every n.
TEST(RngUniformInt, LargeRangeChiSquareUniform) {
  const int64_t n = int64_t{3} << 61;
  constexpr int kBins = 6;
  constexpr int kDraws = 30000;
  const int64_t bin_width = n / kBins;  // 2^60, divides exactly
  Rng rng(0xB1A5);
  double counts[kBins] = {};
  for (int i = 0; i < kDraws; ++i) {
    const int64_t x = rng.uniform_int(n);
    ASSERT_GE(x, 0);
    ASSERT_LT(x, n);
    counts[x / bin_width] += 1;
  }
  const double expected = static_cast<double>(kDraws) / kBins;
  double chi2 = 0;
  for (double c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 20.5);  // df = 5 critical value at p = 0.001
}

// Small ranges (the common buffer-eviction case) must also be uniform.
TEST(RngUniformInt, SmallRangeChiSquareUniform) {
  constexpr int64_t n = 37;
  constexpr int kDraws = 37000;
  Rng rng(0x5EED);
  std::vector<double> counts(static_cast<size_t>(n), 0.0);
  for (int i = 0; i < kDraws; ++i) {
    counts[static_cast<size_t>(rng.uniform_int(n))] += 1;
  }
  const double expected = static_cast<double>(kDraws) / n;
  double chi2 = 0;
  for (double c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 68.0);  // df = 36 critical value at p = 0.001
}

// Pin the exact draw algorithm: uniform_int must match an independent
// implementation of Lemire's multiply-shift rejection on the same stream
// (both the values returned and the number of u64s consumed).
TEST(RngUniformInt, MatchesUnbiasedRejectionReference) {
  Rng rng(123);
  Rng ref_rng(123);  // identical state; advances in lockstep
  auto ref_draw = [&ref_rng](uint64_t n) {
    uint64_t x = ref_rng.next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    uint64_t lo = static_cast<uint64_t>(m);
    if (lo < n) {
      const uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = ref_rng.next_u64();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<uint64_t>(m);
      }
    }
    return static_cast<int64_t>(static_cast<uint64_t>(m >> 64));
  };
  for (int64_t n : {int64_t{2}, int64_t{3}, int64_t{10}, int64_t{1000},
                    (int64_t{1} << 62) + 12345}) {
    for (int i = 0; i < 200; ++i) {
      ASSERT_EQ(rng.uniform_int(n), ref_draw(static_cast<uint64_t>(n)))
          << "n=" << n << " draw " << i;
    }
  }
}

// ------------------------------------------ Eq. 2 across the rho grid

class RhoGrid : public ::testing::TestWithParam<float> {};

TEST_P(RhoGrid, DeltaIsValidProbabilityWeight) {
  const float rho = GetParam();
  core::PreferenceTracker t(20, 4, 200, rho);
  Rng rng(uint64_t(rho * 1000) + 3);
  for (int i = 0; i < 600; ++i) {
    // Skewed stream: classes 0-3 dominate.
    t.update(rng.bernoulli(0.7) ? rng.uniform_int(4) : rng.uniform_int(20));
  }
  EXPECT_GE(t.delta_k(), 0.05);
  EXPECT_LE(t.delta_k(), 0.95);
  // Preferred weight must not be below the non-preferred weight for any
  // rho on a stream where preferred classes really dominate.
  EXPECT_GE(t.delta(0) + 1e-9, t.delta(10));
}

INSTANTIATE_TEST_SUITE_P(Rho, RhoGrid,
                         ::testing::Values(0.0f, 0.25f, 0.5f, 0.75f, 1.0f));

TEST(Eq2Property, DeltaMonotoneInRhoUnderSkew) {
  // With n_k > n_rest, Delta = (n_k / (n_k + n_rest))^rho... note Eq. 2 is
  // n_k^rho / (n_k + n_rest)^rho = (n_k/(n_k+n_rest))^rho, a ratio < 1, so
  // larger rho gives SMALLER Delta — rho trades affinity strength against
  // interference suppression (paper Sec. III-C.1).
  double prev = 1.0;
  for (float rho : {0.1f, 0.3f, 0.5f, 0.7f, 0.9f}) {
    core::PreferenceTracker t(10, 2, 100, rho);
    for (int i = 0; i < 80; ++i) t.update(i % 2);       // heavy on 0,1
    for (int i = 0; i < 20; ++i) t.update(2 + i % 8);   // light on rest
    EXPECT_LT(t.delta_k(), prev + 1e-9);
    prev = t.delta_k();
  }
}

// ------------------------------------------ Eq. 4 across the alpha/beta grid

class AlphaBetaGrid
    : public ::testing::TestWithParam<std::pair<float, float>> {};

TEST_P(AlphaBetaGrid, ProbabilitiesNormalisedAndNonNegative) {
  const auto [alpha, beta] = GetParam();
  core::ShortTermMemory st(5, {alpha, beta});
  core::PreferenceTracker prefs(10, 2, 50, 0.5f);
  Rng rng(uint64_t(alpha * 100 + beta * 10 + 1));
  for (int i = 0; i < 50; ++i) prefs.update(rng.uniform_int(10));

  std::vector<int64_t> labels = {0, 3, 7, 3, 9};
  std::vector<double> u = {0.01, 5.0, 0.5, 2.0, 0.1};
  const auto p = st.selection_probabilities(labels, u, prefs);
  double sum = 0;
  for (double v : p) {
    EXPECT_GE(v, 0.0);
    EXPECT_TRUE(std::isfinite(v));
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AlphaBeta, AlphaBetaGrid,
    ::testing::Values(std::pair{0.0f, 0.0f}, std::pair{1.0f, 0.0f},
                      std::pair{0.0f, 1.0f}, std::pair{1.0f, 1.0f},
                      std::pair{0.3f, 3.0f}, std::pair{3.0f, 0.3f}));

TEST(Eq4Property, BetaLimitRanksByInverseUncertainty) {
  core::ShortTermMemory st(5, {0.0f, 1.0f});
  core::PreferenceTracker prefs(5, 1, 1000, 0.5f);
  std::vector<int64_t> labels = {0, 0, 0, 0};
  std::vector<double> u = {4.0, 1.0, 0.25, 8.0};
  const auto p = st.selection_probabilities(labels, u, prefs);
  // p must be ordered inversely to u.
  EXPECT_GT(p[2], p[1]);
  EXPECT_GT(p[1], p[0]);
  EXPECT_GT(p[0], p[3]);
}

// ------------------------------------------ Eq. 6 score properties

TEST(Eq6Property, ScoreBoundedByTanh) {
  Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> p(10), q(10);
    double sp = 0, sq = 0;
    for (int i = 0; i < 10; ++i) {
      p[i] = rng.uniform_f(0.001f, 1.0f);
      q[i] = rng.uniform_f(0.001f, 1.0f);
      sp += p[i];
      sq += q[i];
    }
    for (int i = 0; i < 10; ++i) {
      p[i] /= static_cast<float>(sp);
      q[i] /= static_cast<float>(sq);
    }
    const double s = core::LongTermMemory::prototype_divergence(p, q);
    EXPECT_GE(s, 0.0);
    EXPECT_LT(s, 1.0);  // tanh saturates below 1
  }
}

// ------------------------------------------ buffer invariants across sizes

class BufferCapacities : public ::testing::TestWithParam<int64_t> {};

TEST_P(BufferCapacities, NeverExceedsCapacity) {
  const int64_t cap = GetParam();
  replay::ReplayBuffer buf(cap);
  Rng rng(static_cast<uint64_t>(cap) + 11);
  for (int64_t i = 0; i < 4 * cap + 7; ++i) {
    replay::ReplaySample s;
    s.label = i;
    buf.reservoir_add(std::move(s), rng);
    EXPECT_LE(buf.size(), cap);
  }
  EXPECT_TRUE(buf.full());
}

TEST_P(BufferCapacities, LongTermQuotaHolds) {
  const int64_t cap = GetParam();
  const int64_t classes = 5;
  core::LongTermMemory lt(cap, classes);
  Rng rng(static_cast<uint64_t>(cap) + 13);
  for (int64_t i = 0; i < 6 * cap; ++i) {
    const Tensor latent({1, 2, 1, 1});
    lt.insert({}, i % classes, latent.shape(), latent.data(), rng);
    EXPECT_LE(lt.class_count(i % classes), lt.per_class_quota());
  }
  EXPECT_LE(lt.size(), std::max<int64_t>(cap, classes));
}

INSTANTIATE_TEST_SUITE_P(Caps, BufferCapacities,
                         ::testing::Values(1, 3, 10, 64, 257));

}  // namespace
}  // namespace cham
