// GEMM and im2col correctness: packed kernels vs naive reference over a
// grid of shapes (property-style sweep), exact bit-identity against the
// serial scalar kernels in cham::ref, and the 1x1 pointwise-conv fast path
// against the im2col lowering it replaced.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "nn/layers.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/thread_pool.h"

namespace cham {
namespace {

void naive_gemm(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
                const float* b, float beta, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (int64_t p = 0; p < k; ++p) acc += double(a[i * k + p]) * b[p * n + j];
      c[i * n + j] = beta * c[i * n + j] + alpha * static_cast<float>(acc);
    }
  }
}

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {};

TEST_P(GemmShapes, MatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(uint64_t(m * 1000003 + n * 131 + k));
  Tensor a({m, k}), b({k, n}), c({m, n}), ref({m, n});
  ops::fill_normal(a, rng, 0.0f, 1.0f);
  ops::fill_normal(b, rng, 0.0f, 1.0f);
  ops::fill_normal(c, rng, 0.0f, 1.0f);
  ref = c;

  gemm(m, n, k, 1.5f, a.data(), b.data(), 0.5f, c.data());
  naive_gemm(m, n, k, 1.5f, a.data(), b.data(), 0.5f, ref.data());
  EXPECT_LT(ops::max_abs_diff(c, ref), 1e-3);
}

TEST_P(GemmShapes, AtBMatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(uint64_t(m * 7 + n * 11 + k * 13));
  Tensor at({k, m}), b({k, n}), c({m, n}), ref({m, n});
  ops::fill_normal(at, rng, 0.0f, 1.0f);
  ops::fill_normal(b, rng, 0.0f, 1.0f);

  gemm_at_b(m, n, k, 1.0f, at.data(), b.data(), 0.0f, c.data());
  // Reference: transpose A then naive.
  Tensor a({m, k});
  for (int64_t i = 0; i < k; ++i)
    for (int64_t j = 0; j < m; ++j) a.at(j, i) = at.at(i, j);
  naive_gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, ref.data());
  EXPECT_LT(ops::max_abs_diff(c, ref), 1e-3);
}

TEST_P(GemmShapes, ABtMatchesNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(uint64_t(m * 17 + n * 19 + k * 23));
  Tensor a({m, k}), bt({n, k}), c({m, n}), ref({m, n});
  ops::fill_normal(a, rng, 0.0f, 1.0f);
  ops::fill_normal(bt, rng, 0.0f, 1.0f);

  gemm_a_bt(m, n, k, 1.0f, a.data(), bt.data(), 0.0f, c.data());
  Tensor b({k, n});
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = 0; j < k; ++j) b.at(j, i) = bt.at(i, j);
  naive_gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, ref.data());
  EXPECT_LT(ops::max_abs_diff(c, ref), 1e-3);
}

// Gather kernels vs their dense counterparts: BIT identity, not tolerance.
// The gather pack reads the same values in the same order through pointer
// indirection, so every C element must come out with identical bits. The
// gathered rows live in per-row heap blocks (scattered addresses) to make
// sure nothing silently assumes contiguity between logical rows.
TEST_P(GemmShapes, GatherABtBitIdenticalToDense) {
  const auto [m, n, k] = GetParam();
  Rng rng(uint64_t(m * 29 + n * 31 + k * 37));
  Tensor a({m, k}), bt({n, k}), dense({m, n}), gathered({m, n});
  ops::fill_normal(a, rng, 0.0f, 1.0f);
  ops::fill_normal(bt, rng, 0.0f, 1.0f);
  ops::fill_normal(dense, rng, 0.0f, 1.0f);
  gathered = dense;

  std::vector<std::vector<float>> scattered(static_cast<size_t>(m));
  std::vector<const float*> rows(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) {
    scattered[size_t(i)].assign(a.data() + i * k, a.data() + (i + 1) * k);
    rows[size_t(i)] = scattered[size_t(i)].data();
  }

  gemm_a_bt(m, n, k, 1.25f, a.data(), bt.data(), 0.5f, dense.data());
  gemm_gather_a_bt(m, n, k, 1.25f, rows.data(), bt.data(), 0.5f,
                   gathered.data());
  EXPECT_EQ(std::memcmp(dense.data(), gathered.data(),
                        size_t(m * n) * sizeof(float)),
            0);
}

TEST_P(GemmShapes, GatherAtBGatherBBitIdenticalToDense) {
  const auto [m, n, k] = GetParam();
  Rng rng(uint64_t(m * 41 + n * 43 + k * 47));
  Tensor at({k, m}), b({k, n}), dense({m, n}), gathered({m, n});
  ops::fill_normal(at, rng, 0.0f, 1.0f);
  ops::fill_normal(b, rng, 0.0f, 1.0f);
  ops::fill_normal(dense, rng, 0.0f, 1.0f);
  gathered = dense;

  std::vector<std::vector<float>> scattered(static_cast<size_t>(k));
  std::vector<const float*> rows(static_cast<size_t>(k));
  for (int64_t p = 0; p < k; ++p) {
    scattered[size_t(p)].assign(b.data() + p * n, b.data() + (p + 1) * n);
    rows[size_t(p)] = scattered[size_t(p)].data();
  }

  gemm_at_b(m, n, k, 1.0f, at.data(), b.data(), 1.0f, dense.data());
  gemm_at_b_gather_b(m, n, k, 1.0f, at.data(), rows.data(), 1.0f,
                     gathered.data());
  EXPECT_EQ(std::memcmp(dense.data(), gathered.data(),
                        size_t(m * n) * sizeof(float)),
            0);
}

TEST_P(GemmShapes, GatherColsBitIdenticalToDense) {
  const auto [m, n, k] = GetParam();
  Rng rng(uint64_t(m * 53 + n * 59 + k * 61));
  // Column j of B lives strided inside its own sample block, the pointwise
  // conv layout: b_cols[j][p * stride].
  const int64_t stride = 3;
  Tensor a({m, k}), dense_b({k, n}), dense({m, n}), gathered({m, n});
  ops::fill_normal(a, rng, 0.0f, 1.0f);
  ops::fill_normal(dense, rng, 0.0f, 1.0f);
  gathered = dense;

  std::vector<std::vector<float>> blocks(static_cast<size_t>(n));
  std::vector<const float*> cols(static_cast<size_t>(n));
  Rng fill(uint64_t(m + n + k));
  for (int64_t j = 0; j < n; ++j) {
    auto& blk = blocks[size_t(j)];
    blk.resize(size_t(std::max<int64_t>(1, k * stride)));
    for (auto& v : blk) v = fill.normal_f(0.0f, 1.0f);
    cols[size_t(j)] = blk.data();
    for (int64_t p = 0; p < k; ++p) dense_b.at(p, j) = blk[size_t(p * stride)];
  }

  gemm(m, n, k, 0.75f, a.data(), dense_b.data(), 1.0f, dense.data());
  gemm_gather_cols(m, n, k, 0.75f, a.data(), cols.data(), stride, 1.0f,
                   gathered.data());
  EXPECT_EQ(std::memcmp(dense.data(), gathered.data(),
                        size_t(m * n) * sizeof(float)),
            0);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeGrid, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(16, 16, 16), std::make_tuple(1, 64, 32),
                      std::make_tuple(64, 1, 32), std::make_tuple(65, 129, 130),
                      std::make_tuple(10, 50, 512),
                      std::make_tuple(128, 128, 9)));

TEST(Gemm, AccumulatesWithBetaOne) {
  Tensor a = Tensor::from({1, 2, 3, 4}).reshaped(Shape{{2, 2}});
  Tensor b = Tensor::from({1, 0, 0, 1}).reshaped(Shape{{2, 2}});
  Tensor c = Tensor::full(Shape{{2, 2}}, 10.0f);
  gemm(2, 2, 2, 1.0f, a.data(), b.data(), 1.0f, c.data());
  EXPECT_FLOAT_EQ(c.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 14.0f);
}

TEST(Gemm, MatmulWrapper) {
  Tensor a = Tensor::from({1, 2, 3, 4, 5, 6}).reshaped(Shape{{2, 3}});
  Tensor b = Tensor::from({7, 8, 9, 10, 11, 12}).reshaped(Shape{{3, 2}});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

// im2col: every column entry must equal the padded-image tap it names.
TEST(Im2col, TapsMatchDirectIndexing) {
  ConvGeometry g{2, 5, 5, 3, 2, 1};
  Tensor img({2, 5, 5});
  Rng rng(31);
  ops::fill_normal(img, rng, 0.0f, 1.0f);
  Tensor col({g.col_rows(), g.col_cols()});
  im2col(img.data(), g, col.data());

  const int64_t oh = g.out_h(), ow = g.out_w();
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_c; ++c) {
    for (int64_t kh = 0; kh < g.kernel; ++kh) {
      for (int64_t kw = 0; kw < g.kernel; ++kw, ++row) {
        for (int64_t y = 0; y < oh; ++y) {
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t iy = y * g.stride + kh - g.pad;
            const int64_t ix = x * g.stride + kw - g.pad;
            const float expected =
                (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w)
                    ? img[(c * g.in_h + iy) * g.in_w + ix]
                    : 0.0f;
            EXPECT_EQ(col[row * oh * ow + y * ow + x], expected);
          }
        }
      }
    }
  }
}

// col2im is the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>.
TEST(Im2col, Col2imIsAdjoint) {
  ConvGeometry g{3, 6, 6, 3, 1, 1};
  Rng rng(32);
  Tensor x({g.in_c, g.in_h, g.in_w});
  Tensor y({g.col_rows(), g.col_cols()});
  ops::fill_normal(x, rng, 0.0f, 1.0f);
  ops::fill_normal(y, rng, 0.0f, 1.0f);

  Tensor col({g.col_rows(), g.col_cols()});
  im2col(x.data(), g, col.data());
  Tensor back({g.in_c, g.in_h, g.in_w});
  col2im(y.data(), g, back.data());

  EXPECT_NEAR(ops::dot(col.span(), y.span()),
              ops::dot(x.span(), back.span()), 1e-2);
}

// ------------------------------------------ parallel backend determinism

// static_chunk must tile [0, n) exactly: contiguous, disjoint, complete.
TEST(ThreadPool, StaticChunkIsAnExactPartition) {
  for (int64_t n : {1, 2, 7, 64, 1000}) {
    for (int chunks : {1, 2, 3, 5, 8, 16}) {
      int64_t prev = 0;
      for (int c = 0; c < chunks; ++c) {
        const auto [b, e] = detail::static_chunk(n, chunks, c);
        EXPECT_EQ(b, prev);
        EXPECT_LE(b, e);
        prev = e;
      }
      EXPECT_EQ(prev, n);
    }
  }
}

// The determinism contract: every kernel result is bit-identical for every
// thread count (per-element reduction order never depends on the partition).
// Inputs: one odd shape straddling every tile edge, then the MobileNet
// head's shapes (256-channel 2x2 latents): the per-sample pointwise conv
// (256x4x256, exactly at the pool's grain), a 32-sample batch, the
// 256-sample eval chunk, and the backward A^T B / A B^T pair.
TEST(ThreadPool, KernelsBitIdenticalAcrossThreadCounts) {
  enum class Kernel { kGemm, kAtB, kABt };
  const struct {
    Kernel kernel;
    int64_t m, n, k;
  } cases[] = {
      {Kernel::kGemm, 65, 129, 130},  {Kernel::kAtB, 65, 129, 130},
      {Kernel::kABt, 65, 129, 130},   {Kernel::kGemm, 256, 4, 256},
      {Kernel::kGemm, 256, 128, 256}, {Kernel::kGemm, 256, 1024, 256},
      {Kernel::kAtB, 256, 128, 256},  {Kernel::kABt, 256, 256, 128},
  };
  // alpha = 1, beta = 0 is the copy pack; alpha != 1 and beta != 0 exercise
  // the folded-alpha pack and the beta pre-pass inside each row chunk.
  const struct {
    float alpha, beta;
  } coeff[] = {{1.0f, 0.0f}, {1.25f, 0.5f}};
  const int saved = num_threads();
  for (const auto& sc : cases) {
    const int64_t m = sc.m, n = sc.n, k = sc.k;
    Rng rng(uint64_t(77 + m * 31 + n * 7 + k));
    Tensor a = sc.kernel == Kernel::kAtB ? Tensor({k, m}) : Tensor({m, k});
    Tensor b = sc.kernel == Kernel::kABt ? Tensor({n, k}) : Tensor({k, n});
    Tensor c0({m, n});
    ops::fill_normal(a, rng, 0.0f, 1.0f);
    ops::fill_normal(b, rng, 0.0f, 1.0f);
    ops::fill_normal(c0, rng, 0.0f, 1.0f);
    for (const auto& co : coeff) {
      auto run = [&] {
        Tensor c = c0;
        switch (sc.kernel) {
          case Kernel::kGemm:
            gemm(m, n, k, co.alpha, a.data(), b.data(), co.beta, c.data());
            break;
          case Kernel::kAtB:
            gemm_at_b(m, n, k, co.alpha, a.data(), b.data(), co.beta,
                      c.data());
            break;
          case Kernel::kABt:
            gemm_a_bt(m, n, k, co.alpha, a.data(), b.data(), co.beta,
                      c.data());
            break;
        }
        return c;
      };
      set_num_threads(1);
      const Tensor ref = run();
      for (int threads : {2, 3, 4, 8}) {
        set_num_threads(threads);
        EXPECT_EQ(ops::max_abs_diff(run(), ref), 0.0)
            << "kernel " << static_cast<int>(sc.kernel) << " " << m << "x"
            << n << "x" << k << " alpha " << co.alpha << ", t=" << threads;
      }
    }
  }
  set_num_threads(saved);
}

// ------------------------------------------- packed kernels vs cham::ref

// Exact bit-identity of the packed kernels against the serial scalar
// reference kernels over a grid of edge shapes: empty extents, single rows
// and columns, sizes straddling the 4x16 wide tile, the 8x4 narrow tile
// (n <= 8 selects it) and non-multiples of both — at more than one thread
// count, since the partition must not affect any reduction order.
TEST(GemmRef, BitIdenticalOnEdgeShapeGrid) {
  const int saved = num_threads();
  const int64_t sizes[] = {0, 1, 3, 4, 5, 8, 9, 16, 17, 63, 64, 65};
  const struct {
    float alpha, beta;
  } coeff[] = {{1.0f, 0.0f}, {1.25f, 0.5f}};  // copy pack and folded pack
  for (int threads : {1, 3}) {
    set_num_threads(threads);
    for (int64_t m : sizes) {
      for (int64_t n : sizes) {
        for (int64_t k : sizes) {
          Rng rng(uint64_t(m * 73856093 + n * 19349663 + k * 83492791 + 1));
          Tensor a({m, k}), b({k, n}), at({k, m}), bt({n, k}), c0({m, n});
          ops::fill_normal(a, rng, 0.0f, 1.0f);
          ops::fill_normal(b, rng, 0.0f, 1.0f);
          ops::fill_normal(at, rng, 0.0f, 1.0f);
          ops::fill_normal(bt, rng, 0.0f, 1.0f);
          ops::fill_normal(c0, rng, 0.0f, 1.0f);
          for (const auto& co : coeff) {
            Tensor c = c0, r = c0;
            gemm(m, n, k, co.alpha, a.data(), b.data(), co.beta, c.data());
            ref::gemm(m, n, k, co.alpha, a.data(), b.data(), co.beta,
                      r.data());
            ASSERT_EQ(ops::max_abs_diff(c, r), 0.0)
                << "gemm " << m << "x" << n << "x" << k << " t=" << threads;
            c = c0;
            r = c0;
            gemm_at_b(m, n, k, co.alpha, at.data(), b.data(), co.beta,
                      c.data());
            ref::gemm_at_b(m, n, k, co.alpha, at.data(), b.data(), co.beta,
                           r.data());
            ASSERT_EQ(ops::max_abs_diff(c, r), 0.0)
                << "gemm_at_b " << m << "x" << n << "x" << k
                << " t=" << threads;
            c = c0;
            r = c0;
            gemm_a_bt(m, n, k, co.alpha, a.data(), bt.data(), co.beta,
                      c.data());
            ref::gemm_a_bt(m, n, k, co.alpha, a.data(), bt.data(), co.beta,
                           r.data());
            ASSERT_EQ(ops::max_abs_diff(c, r), 0.0)
                << "gemm_a_bt " << m << "x" << n << "x" << k
                << " t=" << threads;
          }
        }
      }
    }
  }
  set_num_threads(saved);
}

// K straddling the 256-element strip: the packed core chains accumulation
// across strips through the C slot, which must reproduce the reference's
// single unbroken fma chain exactly.
TEST(GemmRef, BitIdenticalAcrossKStrips) {
  for (int64_t k : {255, 256, 257, 511, 512, 513}) {
    for (int64_t n : {4, 17}) {  // narrow and wide tile
      const int64_t m = 5;
      Rng rng(uint64_t(k * 131 + n));
      Tensor a({m, k}), b({k, n}), c({m, n}), r({m, n});
      ops::fill_normal(a, rng, 0.0f, 1.0f);
      ops::fill_normal(b, rng, 0.0f, 1.0f);
      ops::fill_normal(c, rng, 0.0f, 1.0f);
      r = c;
      gemm(m, n, k, 1.25f, a.data(), b.data(), 0.5f, c.data());
      ref::gemm(m, n, k, 1.25f, a.data(), b.data(), 0.5f, r.data());
      ASSERT_EQ(ops::max_abs_diff(c, r), 0.0) << "k=" << k << " n=" << n;
    }
  }
}

struct GemmCoeff {
  float alpha, beta;
};

// Every kernel, gather sources included, on every (n, m, k) of the grid
// and every (alpha, beta) pair must land on cham::ref exactly, at 1 and 3
// threads: gemm_gather_a_bt against ref::gemm_a_bt, gemm_at_b_gather_b
// against ref::gemm_at_b, and gemm_gather_cols (column j of the KxN B read
// at b + j, stride n) against ref::gemm. Each kernel runs on a fresh copy
// of C.
void expect_grid_matches_ref(const std::vector<int64_t>& ns,
                             const std::vector<int64_t>& ms,
                             const std::vector<int64_t>& ks,
                             const std::vector<GemmCoeff>& coeffs) {
  const int saved = num_threads();
  for (int64_t n : ns) {
    for (int64_t m : ms) {
      for (int64_t k : ks) {
        Rng rng(uint64_t(m * 7919 + n * 104729 + k * 131));
        Tensor a({m, k}), b({k, n}), at({k, m}), bt({n, k}), c0({m, n});
        ops::fill_normal(a, rng, 0.0f, 1.0f);
        ops::fill_normal(b, rng, 0.0f, 1.0f);
        ops::fill_normal(at, rng, 0.0f, 1.0f);
        ops::fill_normal(bt, rng, 0.0f, 1.0f);
        ops::fill_normal(c0, rng, 0.0f, 1.0f);
        std::vector<const float*> a_rows, b_rows, b_cols;
        for (int64_t i = 0; i < m; ++i) a_rows.push_back(a.data() + i * k);
        for (int64_t p = 0; p < k; ++p) b_rows.push_back(b.data() + p * n);
        for (int64_t j = 0; j < n; ++j) b_cols.push_back(b.data() + j);
        for (const GemmCoeff& co : coeffs) {
          const float al = co.alpha, be = co.beta;
          Tensor r_ab = c0, r_atb = c0, r_abt = c0;
          ref::gemm(m, n, k, al, a.data(), b.data(), be, r_ab.data());
          ref::gemm_at_b(m, n, k, al, at.data(), b.data(), be, r_atb.data());
          ref::gemm_a_bt(m, n, k, al, a.data(), bt.data(), be, r_abt.data());
          const auto check = [&](const char* kernel, const Tensor& ref_c,
                                 const auto& run, int threads) {
            Tensor c = c0;
            run(c.data());
            ASSERT_EQ(ops::max_abs_diff(c, ref_c), 0.0)
                << kernel << " " << m << "x" << n << "x" << k << " alpha "
                << al << " beta " << be << " t=" << threads;
          };
          for (int threads : {1, 3}) {
            set_num_threads(threads);
            check("gemm", r_ab, [&](float* c) {
              gemm(m, n, k, al, a.data(), b.data(), be, c);
            }, threads);
            check("gemm_gather_cols", r_ab, [&](float* c) {
              gemm_gather_cols(m, n, k, al, a.data(), b_cols.data(), n, be,
                               c);
            }, threads);
            check("gemm_at_b", r_atb, [&](float* c) {
              gemm_at_b(m, n, k, al, at.data(), b.data(), be, c);
            }, threads);
            check("gemm_at_b_gather_b", r_atb, [&](float* c) {
              gemm_at_b_gather_b(m, n, k, al, at.data(), b_rows.data(), be,
                                 c);
            }, threads);
            check("gemm_a_bt", r_abt, [&](float* c) {
              gemm_a_bt(m, n, k, al, a.data(), bt.data(), be, c);
            }, threads);
            check("gemm_gather_a_bt", r_abt, [&](float* c) {
              gemm_gather_a_bt(m, n, k, al, a_rows.data(), bt.data(), be, c);
            }, threads);
          }
          if (::testing::Test::HasFatalFailure()) {
            set_num_threads(saved);
            return;
          }
        }
      }
    }
  }
  set_num_threads(saved);
}

// The wide tiles against cham::ref, bit for bit: n straddles the 4x16 /
// 8x32 boundary (9, 16, 17) and the 8x32 tile's masked column tails (30,
// 31, 33, 120), m the 8-row block (1, 7, 8, 9, 13, 256), k the 256-element
// strip (255, 256, 257, 512 chain across strips). alpha != 1 takes the
// packed A path, and beta covers the zero, scale and accumulate passes.
TEST(GemmRef, BitIdenticalOnWideTileGrid) {
  expect_grid_matches_ref({9, 16, 17, 30, 31, 32, 33, 120},
                          {1, 7, 8, 9, 13, 256}, {1, 255, 256, 257, 512},
                          {{1.0f, 0.0f}, {1.25f, 0.5f}, {0.75f, 1.0f}});
}

// The narrow outputs (n <= 8) against cham::ref, bit for bit. On AVX-512
// builds gemm, gemm_a_bt and gemm_gather_cols at alpha == 1 run the 16-row
// tall tile: m covers its row tail (1, 8, 15 rows take only the 8x4 tile;
// 17, 31, 33 mix both; 256, 512 are the served head's channel counts), k
// its 16-step K blocks and masked K tail (1, 15, 17, 255, 257) and the
// 256-element strip. alpha == 0.5 and the transposed or gathered A sources
// keep the 8x4 tile on the same grid.
TEST(GemmRef, BitIdenticalOnNarrowTallGrid) {
  expect_grid_matches_ref({1, 2, 3, 4, 5, 6, 7, 8},
                          {1, 8, 15, 16, 17, 31, 33, 256, 512},
                          {1, 15, 16, 17, 255, 256, 257, 512},
                          {{1.0f, 0.0f}, {1.0f, 1.0f}, {0.5f, 0.5f}});
}

// --------------------------------------- 1x1 pointwise conv fast path

// For a 1x1 stride-1 pad-0 convolution the im2col column matrix is exactly
// the input plane, so the direct NHW-flattened GEMM path must be
// bit-identical to the lowering it replaced — for batch 1 (the direct-call
// branch) and batched inputs alike.
TEST(PointwiseConv, ForwardMatchesIm2colBitExact) {
  for (int64_t batch : {1, 3}) {
    Rng rng(uint64_t(91 + batch));
    nn::Conv2d conv(6, 10, 4, 4, /*kernel=*/1, /*stride=*/1, /*pad=*/0,
                    /*bias=*/true, rng);
    const Tensor& w = conv.params()[0]->value;
    const Tensor& bias = conv.params()[1]->value;
    Tensor x({batch, 6, 4, 4});
    ops::fill_normal(x, rng, 0.0f, 1.0f);
    const Tensor out = conv.forward(x, /*train=*/false);

    ConvGeometry g{6, 4, 4, 1, 1, 0};
    const int64_t opix = g.col_cols();
    Tensor ref({batch, 10, 4, 4});
    Tensor col({g.col_rows(), g.col_cols()});
    for (int64_t n = 0; n < batch; ++n) {
      im2col(x.data() + n * 6 * opix, g, col.data());
      float* out_n = ref.data() + n * 10 * opix;
      gemm(10, opix, g.col_rows(), 1.0f, w.data(), col.data(), 0.0f, out_n);
      for (int64_t c = 0; c < 10; ++c) {
        for (int64_t p = 0; p < opix; ++p) out_n[c * opix + p] += bias[c];
      }
    }
    EXPECT_EQ(ops::max_abs_diff(out, ref), 0.0) << "batch=" << batch;
  }
}

TEST(PointwiseConv, BackwardMatchesIm2colBitExact) {
  const int64_t batch = 2, in_c = 6, out_c = 10;
  Rng rng(92);
  nn::Conv2d conv(in_c, out_c, 4, 4, /*kernel=*/1, /*stride=*/1, /*pad=*/0,
                  /*bias=*/false, rng);
  const Tensor& w = conv.params()[0]->value;
  Tensor x({batch, in_c, 4, 4}), go({batch, out_c, 4, 4});
  ops::fill_normal(x, rng, 0.0f, 1.0f);
  ops::fill_normal(go, rng, 0.0f, 1.0f);
  (void)conv.forward(x, /*train=*/true);
  const Tensor grad_in = conv.backward(go);

  // The im2col lowering's backward on the same operands: for a 1x1 kernel
  // the column matrix is the input plane and col2im is the identity, so
  //   dW += dOut_n @ X_n^T   and   dX_n = W^T @ dOut_n,
  // accumulated over samples in the same ascending order.
  const int64_t opix = 16;
  Tensor wg({out_c, in_c});
  Tensor gin_ref({batch, in_c, 4, 4});
  for (int64_t n = 0; n < batch; ++n) {
    const float* go_n = go.data() + n * out_c * opix;
    gemm_a_bt(out_c, in_c, opix, 1.0f, go_n, x.data() + n * in_c * opix,
              1.0f, wg.data());
    gemm_at_b(in_c, opix, out_c, 1.0f, w.data(), go_n, 0.0f,
              gin_ref.data() + n * in_c * opix);
  }
  EXPECT_EQ(ops::max_abs_diff(conv.params()[0]->grad, wg), 0.0);
  EXPECT_EQ(ops::max_abs_diff(grad_in, gin_ref), 0.0);
}

TEST(ConvGeometry, OutputDims) {
  ConvGeometry g{3, 32, 32, 3, 2, 1};
  EXPECT_EQ(g.out_h(), 16);
  ConvGeometry same{3, 32, 32, 3, 1, 1};
  EXPECT_EQ(same.out_h(), 32);
  ConvGeometry pw{8, 7, 7, 1, 1, 0};
  EXPECT_EQ(pw.out_h(), 7);
  EXPECT_EQ(pw.col_rows(), 8);
}

}  // namespace
}  // namespace cham
