#include "tensor/gemm.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <type_traits>

#include "tensor/thread_pool.h"
#include "tensor/workspace.h"
#include "util/check.h"

// Compile-time SIMD selection. CHAM_SIMD_AVX2 / CHAM_SIMD_NEON are set by
// the CHAM_SIMD CMake option; without an explicit choice the target arch
// decides (the default build compiles with -march=native, so __AVX2__ and
// __FMA__ reflect the host). CHAM_SIMD_GENERIC forces the scalar kernel.
#if defined(CHAM_SIMD_AVX2) ||                                      \
    (!defined(CHAM_SIMD_GENERIC) && !defined(CHAM_SIMD_NEON) &&     \
     defined(__AVX2__) && defined(__FMA__))
#define CHAM_GEMM_USE_AVX2 1
#include <immintrin.h>
#if defined(CHAM_SIMD_USE_AVX512)
#define CHAM_GEMM_USE_AVX512 1
#endif
#elif defined(CHAM_SIMD_NEON) || \
    (!defined(CHAM_SIMD_GENERIC) && defined(__ARM_NEON))
#define CHAM_GEMM_USE_NEON 1
#include <arm_neon.h>
#endif

namespace cham {
namespace {

// One K strip: panels of this depth are packed and streamed through the
// micro-kernel. 256 floats of A rows plus the B panel stay L1/L2-resident
// for the layer shapes in this repo.
constexpr int64_t kKc = 256;

// Wide register tile: 4 rows x 16 cols = 8 YMM accumulators under AVX2.
constexpr int64_t kWideMr = 4;
constexpr int64_t kWideNr = 16;
// Narrow tile for outputs with few columns (classifier heads, n <= 8):
// trades tile width for row depth so the fma chains stay independent.
constexpr int64_t kNarrowMr = 8;
constexpr int64_t kNarrowNr = 4;
// The tile choice depends only on the call (n; for the tall tile below also
// alpha and the A source), never on the thread partition.
constexpr int64_t kNarrowCutoff = 8;
#if defined(CHAM_GEMM_USE_AVX512)
// ZMM tile: 8 rows x 32 cols = 16 ZMM accumulators, for n > 16. Outputs of
// 9..16 columns keep the 4x16 tile: a 4-key predict's n = 16 would leave
// half of every ZMM tile idle.
constexpr int64_t kZmmMr = 8;
constexpr int64_t kZmmNr = 32;
constexpr int64_t kWideCutoff = 16;
// Tall tile for n <= 8 over a dense row-major A at alpha == 1: 16 rows of C
// in the lanes of one ZMM per column (the 8x4 tile would issue one scalar
// A broadcast per MAC and, at n = 1, use one of its four lanes).
constexpr int64_t kTallMr = 16;
#endif

// Minimum rows of C per worker chunk; below this a parallel dispatch costs
// more than the arithmetic it hides.
constexpr int64_t kRowGrain = 8;

// Rows per worker chunk: at least kChunkMacs of work, so small-n GEMMs
// (head layers, n = 4) get proportionally more rows per chunk and a
// sub-quarter-MMAC GEMM (e.g. the 256x4x256 head forward, ~20us of
// arithmetic) gets a grain >= its row count and runs inline on the calling
// thread — the whole dispatch would cost more than it hides.
int64_t gemm_grain(int64_t n, int64_t k) {
  return std::max(kRowGrain,
                  work_grain(std::max<int64_t>(1, n) * std::max<int64_t>(1, k),
                             kChunkMacs));
}

// The one rounding step of the accumulation chain. With hardware fma the
// multiply-add rounds once; the fallback keeps multiply and add as separate
// statements so -ffp-contract cannot fuse them behind our back (contraction
// only applies within a single expression). Every kernel in this file —
// packed, intrinsic, and reference — accumulates through this helper, which
// is what makes them bit-identical to each other.
inline float cham_fma(float a, float b, float c) {
#if defined(__FMA__) || defined(__ARM_FEATURE_FMA) || defined(FP_FAST_FMAF)
  return std::fmaf(a, b, c);
#else
  const float p = a * b;
  return p + c;
#endif
}

// Packs one MR-row micro-tile of A for K strip [pc, pc+depth): element
// (p, r) at dst[p*MR + r], alpha folded in, rows past `rows` zero-padded
// (padded lanes contribute exact zeros and are never stored back).
// kATrans selects the read pattern: A row-major MxK (lda = k) or the
// transposed operand of gemm_at_b, stored KxM (lda = m).
template <bool kATrans, int MR>
void pack_a_tile(const float* CHAM_RESTRICT a, int64_t lda, int64_t row0,
                 int64_t rows, int64_t pc, int64_t depth, float alpha,
                 float* CHAM_RESTRICT dst) {
  for (int64_t p = 0; p < depth; ++p) {
    float* d = dst + p * MR;
    if (alpha == 1.0f) {
      for (int64_t r = 0; r < rows; ++r) {
        d[r] = kATrans ? a[(pc + p) * lda + (row0 + r)]
                       : a[(row0 + r) * lda + (pc + p)];
      }
    } else {
      for (int64_t r = 0; r < rows; ++r) {
        d[r] = alpha * (kATrans ? a[(pc + p) * lda + (row0 + r)]
                                : a[(row0 + r) * lda + (pc + p)]);
      }
    }
    for (int64_t r = rows; r < MR; ++r) d[r] = 0.0f;
  }
}

// Packs the full B panel of K strip [pc, pc+depth) as NR-column blocks:
// block jb at dst + (jb/NR)*depth*NR, element (p, jj) at [p*NR + jj],
// column tails zero-padded. kBTrans selects B row-major KxN (ldb = n) or
// the transposed operand of gemm_a_bt, stored NxK (ldb = k).
template <bool kBTrans, int NR>
void pack_b_panel(const float* CHAM_RESTRICT b, int64_t ldb, int64_t pc,
                  int64_t depth, int64_t n, float* CHAM_RESTRICT dst) {
  for (int64_t jb = 0; jb < n; jb += NR) {
    float* blk = dst + (jb / NR) * depth * NR;
    const int64_t cols = std::min<int64_t>(NR, n - jb);
    for (int64_t p = 0; p < depth; ++p) {
      float* d = blk + p * NR;
      if (kBTrans) {
        for (int64_t jj = 0; jj < cols; ++jj) {
          d[jj] = b[(jb + jj) * ldb + (pc + p)];
        }
      } else {
        const float* s = b + (pc + p) * ldb + jb;
        for (int64_t jj = 0; jj < cols; ++jj) d[jj] = s[jj];
      }
      for (int64_t jj = cols; jj < NR; ++jj) d[jj] = 0.0f;
    }
  }
}

// One MR-row tile of A for a K strip as the micro-kernels read it: element
// (p, r) — K step p, tile row r — at base[p * sp + r * sr]. A packed tile is
// {pack, MR, 1}; a full tile of a dense A with alpha == 1 is read in place
// ({&A[row0][pc], 1, lda}, or {&A[pc][row0], lda, 1} for the transposed
// operand of gemm_at_b): a pack there is a pure copy, and the kernels see
// the same values in the same order either way.
struct ATile {
  const float* base;
  int64_t sp, sr;
};

// Operand source descriptors. The packed core is templated on how each
// logical operand element is addressed, not on a single (base, ld) pair:
// dense sources wrap the original packers, gather sources read through a
// caller-owned pointer array. Pack order, zero padding, and alpha folding
// are identical for every source, and everything downstream of the pack
// (micro-kernels, strip/row partition, fma chains) is shared — so gathered
// operands are bit-identical to packing a pre-stacked dense copy.
template <bool kTrans>
struct ADense {
  const float* a;
  int64_t lda;
  template <int MR>
  ATile tile(int64_t row0, int64_t rows, int64_t pc, int64_t depth,
             float alpha, float* pack) const {
    if (alpha == 1.0f && rows == MR) {
      return kTrans ? ATile{a + pc * lda + row0, lda, 1}
                    : ATile{a + row0 * lda + pc, 1, lda};
    }
    pack_a_tile<kTrans, MR>(a, lda, row0, rows, pc, depth, alpha, pack);
    return {pack, MR, 1};
  }
};

// Row-gathered A: logical row i is the k contiguous floats at rows[i].
// Backs the replay path, where each row lives in a different latent slab /
// cache entry and is packed in place instead of being stacked first.
struct AGatherRows {
  const float* const* rows;
  template <int MR>
  ATile tile(int64_t row0, int64_t nrows, int64_t pc, int64_t depth,
             float alpha, float* CHAM_RESTRICT dst) const {
    for (int64_t p = 0; p < depth; ++p) {
      float* d = dst + p * MR;
      if (alpha == 1.0f) {
        for (int64_t r = 0; r < nrows; ++r) d[r] = rows[row0 + r][pc + p];
      } else {
        for (int64_t r = 0; r < nrows; ++r) {
          d[r] = alpha * rows[row0 + r][pc + p];
        }
      }
      for (int64_t r = nrows; r < MR; ++r) d[r] = 0.0f;
    }
    return {dst, MR, 1};
  }
};

template <bool kTrans>
struct BDense {
  const float* b;
  int64_t ldb;
  template <int NR>
  void pack_panel(int64_t pc, int64_t depth, int64_t n, float* dst) const {
    pack_b_panel<kTrans, NR>(b, ldb, pc, depth, n, dst);
  }
};

// Row-gathered B: logical row p is the n contiguous floats at rows[p].
// Backs Linear's weight gradient over gathered samples (gemm_at_b with
// B = the gathered input batch).
struct BGatherRows {
  const float* const* rows;
  template <int NR>
  void pack_panel(int64_t pc, int64_t depth, int64_t n,
                  float* CHAM_RESTRICT dst) const {
    for (int64_t jb = 0; jb < n; jb += NR) {
      float* blk = dst + (jb / NR) * depth * NR;
      const int64_t ncols = std::min<int64_t>(NR, n - jb);
      for (int64_t p = 0; p < depth; ++p) {
        float* d = blk + p * NR;
        const float* s = rows[pc + p] + jb;
        for (int64_t jj = 0; jj < ncols; ++jj) d[jj] = s[jj];
        for (int64_t jj = ncols; jj < NR; ++jj) d[jj] = 0.0f;
      }
    }
  }
};

// Column-gathered B: logical element (p, j) is cols[j][p * stride]. Backs
// the pointwise-conv forward over gathered samples: column (n, pix) of the
// flattened batch reads sample n's latent plane directly (cols[j] =
// rows[n] + pix, stride = pixels per channel) with no xcat staging copy.
struct BGatherCols {
  const float* const* cols;
  int64_t stride;
  template <int NR>
  void pack_panel(int64_t pc, int64_t depth, int64_t n,
                  float* CHAM_RESTRICT dst) const {
    for (int64_t jb = 0; jb < n; jb += NR) {
      float* blk = dst + (jb / NR) * depth * NR;
      const int64_t ncols = std::min<int64_t>(NR, n - jb);
      for (int64_t p = 0; p < depth; ++p) {
        float* d = blk + p * NR;
        const int64_t off = (pc + p) * stride;
        for (int64_t jj = 0; jj < ncols; ++jj) d[jj] = cols[jb + jj][off];
        for (int64_t jj = ncols; jj < NR; ++jj) d[jj] = 0.0f;
      }
    }
  }
};

// Scalar micro-kernel over an A tile and a packed B panel: a full MR x NR
// accumulator tile held in registers, no data-dependent branches. Valid
// lanes load C (which chains the fma sequence exactly across K strips
// through the C slot); padded lanes start at zero, accumulate exact zeros,
// and are not stored. Rows past `rows` only exist in packed tiles (in-place
// tiles are always full), where they are zero padding.
template <int MR, int NR>
void micro_kernel_generic(int64_t rows, int64_t cols, int64_t depth, ATile a,
                          const float* CHAM_RESTRICT b_pack,
                          float* CHAM_RESTRICT c, int64_t ldc) {
  float acc[MR][NR];
  for (int64_t r = 0; r < MR; ++r) {
    for (int64_t j = 0; j < NR; ++j) {
      acc[r][j] = (r < rows && j < cols) ? c[r * ldc + j] : 0.0f;
    }
  }
  for (int64_t p = 0; p < depth; ++p) {
    const float* CHAM_RESTRICT ap = a.base + p * a.sp;
    const float* CHAM_RESTRICT bp = b_pack + p * NR;
    for (int64_t r = 0; r < MR; ++r) {
      const float av = ap[r * a.sr];
      for (int64_t j = 0; j < NR; ++j) {
        acc[r][j] = cham_fma(av, bp[j], acc[r][j]);
      }
    }
  }
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = 0; j < cols; ++j) c[r * ldc + j] = acc[r][j];
  }
}

#if defined(CHAM_GEMM_USE_AVX2)
// Full 4x16 tile: 8 YMM accumulators, 2 B vectors, broadcast A lanes.
// _mm256_fmadd_ps rounds once per lane, exactly like std::fmaf.
void micro_kernel_avx2_4x16(int64_t depth, ATile a,
                            const float* CHAM_RESTRICT b_pack,
                            float* CHAM_RESTRICT c, int64_t ldc) {
  __m256 acc[4][2];
  for (int r = 0; r < 4; ++r) {
    acc[r][0] = _mm256_loadu_ps(c + r * ldc);
    acc[r][1] = _mm256_loadu_ps(c + r * ldc + 8);
  }
  for (int64_t p = 0; p < depth; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b_pack + p * 16);
    const __m256 b1 = _mm256_loadu_ps(b_pack + p * 16 + 8);
    const float* ap = a.base + p * a.sp;
    for (int r = 0; r < 4; ++r) {
      const __m256 av = _mm256_broadcast_ss(ap + r * a.sr);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < 4; ++r) {
    _mm256_storeu_ps(c + r * ldc, acc[r][0]);
    _mm256_storeu_ps(c + r * ldc + 8, acc[r][1]);
  }
}

// Full 8x4 tile for narrow outputs: 8 XMM accumulators.
void micro_kernel_avx2_8x4(int64_t depth, ATile a,
                           const float* CHAM_RESTRICT b_pack,
                           float* CHAM_RESTRICT c, int64_t ldc) {
  __m128 acc[8];
  for (int r = 0; r < 8; ++r) acc[r] = _mm_loadu_ps(c + r * ldc);
  for (int64_t p = 0; p < depth; ++p) {
    const __m128 bv = _mm_loadu_ps(b_pack + p * 4);
    const float* ap = a.base + p * a.sp;
    for (int r = 0; r < 8; ++r) {
      acc[r] = _mm_fmadd_ps(_mm_broadcast_ss(ap + r * a.sr), bv, acc[r]);
    }
  }
  for (int r = 0; r < 8; ++r) _mm_storeu_ps(c + r * ldc, acc[r]);
}

// Edge tile of the wide path (rows <= 4, cols < 16): C lanes past `cols`
// are masked out of the load and the store, valid lanes run the same
// p-ascending fmadd chain as the full kernel. Masked-out accumulator lanes
// start at exact zero and multiply the B panel's zero padding, so they stay
// zero and are never written back. Row padding of the A pack is never read:
// the row loops stop at `rows`. kFullHeight (rows == 4, the column tail of
// every full row block) fixes the row trip count at compile time, so the
// eight accumulators stay in registers instead of a stack array indexed by
// a runtime bound.
template <bool kFullHeight>
void micro_kernel_avx2_4xN(int64_t rows, int64_t cols, int64_t depth,
                           ATile a, const float* CHAM_RESTRICT b_pack,
                           float* CHAM_RESTRICT c, int64_t ldc) {
  const int64_t nrows = kFullHeight ? 4 : rows;
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i m0 =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(cols)), iota);
  const __m256i m1 =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(cols) - 8), iota);
  __m256 acc[4][2];
  for (int64_t r = 0; r < nrows; ++r) {
    acc[r][0] = _mm256_maskload_ps(c + r * ldc, m0);
    acc[r][1] = _mm256_maskload_ps(c + r * ldc + 8, m1);
  }
  for (int64_t p = 0; p < depth; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b_pack + p * 16);
    const __m256 b1 = _mm256_loadu_ps(b_pack + p * 16 + 8);
    const float* ap = a.base + p * a.sp;
    for (int64_t r = 0; r < nrows; ++r) {
      const __m256 av = _mm256_broadcast_ss(ap + r * a.sr);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  for (int64_t r = 0; r < nrows; ++r) {
    _mm256_maskstore_ps(c + r * ldc, m0, acc[r][0]);
    _mm256_maskstore_ps(c + r * ldc + 8, m1, acc[r][1]);
  }
}

// Edge tile of the narrow path (rows <= 8, cols < 4), same masking and
// full-height scheme.
template <bool kFullHeight>
void micro_kernel_avx2_8xN(int64_t rows, int64_t cols, int64_t depth,
                           ATile a, const float* CHAM_RESTRICT b_pack,
                           float* CHAM_RESTRICT c, int64_t ldc) {
  const int64_t nrows = kFullHeight ? 8 : rows;
  const __m128i iota = _mm_setr_epi32(0, 1, 2, 3);
  const __m128i m =
      _mm_cmpgt_epi32(_mm_set1_epi32(static_cast<int>(cols)), iota);
  __m128 acc[8];
  for (int64_t r = 0; r < nrows; ++r) {
    acc[r] = _mm_maskload_ps(c + r * ldc, m);
  }
  for (int64_t p = 0; p < depth; ++p) {
    const __m128 bv = _mm_loadu_ps(b_pack + p * 4);
    const float* ap = a.base + p * a.sp;
    for (int64_t r = 0; r < nrows; ++r) {
      acc[r] = _mm_fmadd_ps(_mm_broadcast_ss(ap + r * a.sr), bv, acc[r]);
    }
  }
  for (int64_t r = 0; r < nrows; ++r) {
    _mm_maskstore_ps(c + r * ldc, m, acc[r]);
  }
}
#endif  // CHAM_GEMM_USE_AVX2

#if defined(CHAM_GEMM_USE_AVX512)
// 8x32 tile: 16 ZMM accumulators, 2 B vectors per K step, one broadcast A
// lane per row. _mm512_fmadd_ps rounds once per lane, exactly like
// std::fmaf. Full tiles and column tails share the body: two __mmask16
// select the C lanes below `cols` for the load and the store (all ones on
// a full tile). Masked-out accumulator lanes start at exact zero, multiply
// the B panel's zero padding and are never written back. kFullHeight
// (rows == 8, every row block of the head's 256- and 512-channel GEMMs)
// fixes the row trip count at compile time, so the sixteen accumulators
// stay in registers.
template <bool kFullHeight>
void micro_kernel_avx512_8x32(int64_t rows, int64_t cols, int64_t depth,
                              ATile a, const float* CHAM_RESTRICT b_pack,
                              float* CHAM_RESTRICT c, int64_t ldc) {
  const int64_t nrows = kFullHeight ? 8 : rows;
  // Valid-lane masks of the two 16-column halves.
  const auto lanes = [](int64_t n) {
    return static_cast<__mmask16>(n >= 16 ? 0xFFFFu
                                  : n <= 0 ? 0u
                                           : (1u << n) - 1u);
  };
  const __mmask16 m0 = lanes(cols), m1 = lanes(cols - 16);
  __m512 acc[8][2];
  for (int64_t r = 0; r < nrows; ++r) {
    acc[r][0] = _mm512_maskz_loadu_ps(m0, c + r * ldc);
    acc[r][1] = _mm512_maskz_loadu_ps(m1, c + r * ldc + 16);
  }
  for (int64_t p = 0; p < depth; ++p) {
    const __m512 b0 = _mm512_loadu_ps(b_pack + p * 32);
    const __m512 b1 = _mm512_loadu_ps(b_pack + p * 32 + 16);
    const float* ap = a.base + p * a.sp;
    for (int64_t r = 0; r < nrows; ++r) {
      const __m512 av = _mm512_set1_ps(ap[r * a.sr]);
      acc[r][0] = _mm512_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm512_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  for (int64_t r = 0; r < nrows; ++r) {
    _mm512_mask_storeu_ps(c + r * ldc, m0, acc[r][0]);
    _mm512_mask_storeu_ps(c + r * ldc + 16, m1, acc[r][1]);
  }
}

// One stage of the in-register 16x16 transpose: swaps bit log2(S) of the
// row index with the same bit of the lane index. Rows r and r | S trade the
// lanes where that bit differs: r keeps lane q if q & S is clear and takes
// lane q ^ S of r | S otherwise; r | S takes lane q | S of r if q & S is
// clear and keeps lane q otherwise. Two two-source permutes per row pair.
template <int S>
inline void transpose_stage(__m512 (&v)[16]) {
  const auto idx = [](bool hi, int q) {
    if (q & S) return hi ? 16 + q : 16 + (q ^ S);
    return hi ? (q | S) : q;
  };
  const auto lanes = [&](bool hi) {
    return _mm512_setr_epi32(idx(hi, 0), idx(hi, 1), idx(hi, 2), idx(hi, 3),
                             idx(hi, 4), idx(hi, 5), idx(hi, 6), idx(hi, 7),
                             idx(hi, 8), idx(hi, 9), idx(hi, 10), idx(hi, 11),
                             idx(hi, 12), idx(hi, 13), idx(hi, 14),
                             idx(hi, 15));
  };
  const __m512i lo_idx = lanes(false), hi_idx = lanes(true);
#pragma GCC unroll 16
  for (int r = 0; r < 16; ++r) {
    if (r & S) continue;
    const __m512 lo = v[r];
    v[r] = _mm512_permutex2var_ps(lo, lo_idx, v[r | S]);
    v[r | S] = _mm512_permutex2var_ps(lo, hi_idx, v[r | S]);
  }
}

// In-register 16x16 transpose: on entry v[r] holds 16 consecutive K steps
// of A row r, on exit v[q] holds K step q of rows 0..15. 64 permutes, no
// memory.
inline void transpose_16x16(__m512 (&v)[16]) {
  transpose_stage<1>(v);
  transpose_stage<2>(v);
  transpose_stage<4>(v);
  transpose_stage<8>(v);
}

// Tall narrow tile for n = N <= 8 columns: 16 rows of C, one ZMM per
// column, lane r = row r. A is a dense row-major panel read in place
// (alpha == 1); each 16-step K block is loaded row by row (masked on the K
// tail, so nothing past `depth` is read), transposed in registers, and then
// every (K step, column) is one fmadd of the K step's 16 A values against a
// broadcast B element. Each lane therefore runs its C element's
// p-ascending fma chain, exactly the 8x4 tile's arithmetic. B comes from
// the 8x4 path's panel (4-column blocks), so row tails share it.
template <int N>
void micro_kernel_avx512_16xN(int64_t depth, const float* CHAM_RESTRICT a,
                              int64_t lda, const float* CHAM_RESTRICT b_pack,
                              float* CHAM_RESTRICT c) {
  const float* bcol[N];
  for (int j = 0; j < N; ++j) bcol[j] = b_pack + (j / 4) * depth * 4 + j % 4;
  // Lane r of column j is C[r * N + j].
  const __m512i cidx = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm512_set1_epi32(N));
  __m512 acc[N];
  for (int j = 0; j < N; ++j) {
    acc[j] = N == 1 ? _mm512_loadu_ps(c)
                    : _mm512_mask_i32gather_ps(_mm512_setzero_ps(), 0xFFFF,
                                               cidx, c + j, 4);
  }
  __m512 at[16];
  int64_t p0 = 0;
  for (; p0 + 16 <= depth; p0 += 16) {
    // Stage 8 of the transpose (rows r and r + 8 trade 256-bit halves; the
    // stages commute) rides on the loads: a masked 256-bit broadcast runs
    // on either vector port, where the 16 permutes it replaces would all
    // compete for the one port that also runs the other 48. Measured
    // 10-20% faster at n = 1 than the full in-register transpose.
#pragma GCC unroll 8
    for (int r = 0; r < 8; ++r) {
      const float* lo = a + r * lda + p0;
      const float* hi = lo + 8 * lda;
      at[r] = _mm512_castpd_ps(_mm512_mask_broadcast_f64x4(
          _mm512_castps_pd(_mm512_loadu_ps(lo)), 0xF0,
          _mm256_castps_pd(_mm256_loadu_ps(hi))));
      at[r + 8] = _mm512_castpd_ps(_mm512_mask_broadcast_f64x4(
          _mm512_castps_pd(_mm512_loadu_ps(hi)), 0x0F,
          _mm256_castps_pd(_mm256_loadu_ps(lo + 8))));
    }
    transpose_stage<1>(at);
    transpose_stage<2>(at);
    transpose_stage<4>(at);
#pragma GCC unroll 16
    for (int q = 0; q < 16; ++q) {
      for (int j = 0; j < N; ++j) {
        acc[j] = _mm512_fmadd_ps(at[q], _mm512_set1_ps(bcol[j][(p0 + q) * 4]),
                                 acc[j]);
      }
    }
  }
  if (p0 < depth) {
    const int64_t steps = depth - p0;
    const auto km = static_cast<__mmask16>((1u << steps) - 1u);
    for (int r = 0; r < 16; ++r) {
      at[r] = _mm512_maskz_loadu_ps(km, a + r * lda + p0);
    }
    transpose_16x16(at);
    for (int64_t q = 0; q < steps; ++q) {
      for (int j = 0; j < N; ++j) {
        acc[j] = _mm512_fmadd_ps(at[q], _mm512_set1_ps(bcol[j][(p0 + q) * 4]),
                                 acc[j]);
      }
    }
  }
  for (int j = 0; j < N; ++j) {
    if (N == 1) {
      _mm512_storeu_ps(c, acc[j]);
    } else {
      _mm512_i32scatter_ps(c + j, cidx, acc[j], 4);
    }
  }
}

using TallKernel = void (*)(int64_t, const float*, int64_t, const float*,
                            float*);
constexpr TallKernel kTallKernels[kNarrowCutoff] = {
    micro_kernel_avx512_16xN<1>, micro_kernel_avx512_16xN<2>,
    micro_kernel_avx512_16xN<3>, micro_kernel_avx512_16xN<4>,
    micro_kernel_avx512_16xN<5>, micro_kernel_avx512_16xN<6>,
    micro_kernel_avx512_16xN<7>, micro_kernel_avx512_16xN<8>};
#endif  // CHAM_GEMM_USE_AVX512

#if defined(CHAM_GEMM_USE_NEON)
// Full 4x16 tile: 16 Q accumulators. vfmaq_n_f32 fuses per lane like fmaf.
void micro_kernel_neon_4x16(int64_t depth, ATile a,
                            const float* CHAM_RESTRICT b_pack,
                            float* CHAM_RESTRICT c, int64_t ldc) {
  float32x4_t acc[4][4];
  for (int r = 0; r < 4; ++r) {
    for (int q = 0; q < 4; ++q) acc[r][q] = vld1q_f32(c + r * ldc + 4 * q);
  }
  for (int64_t p = 0; p < depth; ++p) {
    float32x4_t bv[4];
    for (int q = 0; q < 4; ++q) bv[q] = vld1q_f32(b_pack + p * 16 + 4 * q);
    const float* ap = a.base + p * a.sp;
    for (int r = 0; r < 4; ++r) {
      for (int q = 0; q < 4; ++q) {
        acc[r][q] = vfmaq_n_f32(acc[r][q], bv[q], ap[r * a.sr]);
      }
    }
  }
  for (int r = 0; r < 4; ++r) {
    for (int q = 0; q < 4; ++q) vst1q_f32(c + r * ldc + 4 * q, acc[r][q]);
  }
}

// Full 8x4 tile for narrow outputs.
void micro_kernel_neon_8x4(int64_t depth, ATile a,
                           const float* CHAM_RESTRICT b_pack,
                           float* CHAM_RESTRICT c, int64_t ldc) {
  float32x4_t acc[8];
  for (int r = 0; r < 8; ++r) acc[r] = vld1q_f32(c + r * ldc);
  for (int64_t p = 0; p < depth; ++p) {
    const float32x4_t bv = vld1q_f32(b_pack + p * 4);
    const float* ap = a.base + p * a.sp;
    for (int r = 0; r < 8; ++r) acc[r] = vfmaq_n_f32(acc[r], bv, ap[r * a.sr]);
  }
  for (int r = 0; r < 8; ++r) vst1q_f32(c + r * ldc, acc[r]);
}
#endif  // CHAM_GEMM_USE_NEON

// Dispatch: intrinsic kernels handle full tiles, the generic kernel handles
// edge tiles (and everything under CHAM_SIMD=generic). Per-lane arithmetic
// is identical either way, so the split is invisible in the output bits.
template <int MR, int NR>
void micro_kernel(int64_t rows, int64_t cols, int64_t depth, ATile a,
                  const float* b_pack, float* c, int64_t ldc) {
#if defined(CHAM_GEMM_USE_AVX2)
#if defined(CHAM_GEMM_USE_AVX512)
  if constexpr (MR == kZmmMr && NR == kZmmNr) {
    if (rows == MR) {
      micro_kernel_avx512_8x32<true>(rows, cols, depth, a, b_pack, c, ldc);
    } else {
      micro_kernel_avx512_8x32<false>(rows, cols, depth, a, b_pack, c, ldc);
    }
    return;
  }
#endif
  if constexpr (MR == 4 && NR == 16) {
    if (rows == MR && cols == NR) {
      micro_kernel_avx2_4x16(depth, a, b_pack, c, ldc);
    } else if (rows == MR) {
      micro_kernel_avx2_4xN<true>(rows, cols, depth, a, b_pack, c, ldc);
    } else {
      micro_kernel_avx2_4xN<false>(rows, cols, depth, a, b_pack, c, ldc);
    }
    return;
  }
  if constexpr (MR == 8 && NR == 4) {
    if (rows == MR && cols == NR) {
      micro_kernel_avx2_8x4(depth, a, b_pack, c, ldc);
    } else if (rows == MR) {
      micro_kernel_avx2_8xN<true>(rows, cols, depth, a, b_pack, c, ldc);
    } else {
      micro_kernel_avx2_8xN<false>(rows, cols, depth, a, b_pack, c, ldc);
    }
    return;
  }
#elif defined(CHAM_GEMM_USE_NEON)
  if (rows == MR && cols == NR) {
    if constexpr (MR == 4 && NR == 16) {
      micro_kernel_neon_4x16(depth, a, b_pack, c, ldc);
      return;
    }
    if constexpr (MR == 8 && NR == 4) {
      micro_kernel_neon_8x4(depth, a, b_pack, c, ldc);
      return;
    }
  }
#endif
  micro_kernel_generic<MR, NR>(rows, cols, depth, a, b_pack, c, ldc);
}

// One worker's row range [i0, i1) of a single K strip: streams MR-row tiles
// of A through the micro-kernel against the strip's shared packed B panel.
// A-tile scratch comes from the worker's own arena, so repeat calls never
// touch the heap.
template <class ASrc, int MR, int NR>
void run_rows(int64_t i0, int64_t i1, int64_t n, int64_t pc, int64_t depth,
              float alpha, const ASrc& asrc,
              const float* CHAM_RESTRICT b_pack, float* c) {
#if defined(CHAM_GEMM_USE_AVX512)
  // Narrow outputs of a dense row-major A at alpha == 1 run 16-row tall
  // tiles; the rows past the chunk's last multiple of 16 fall through to
  // the 8x4 tile below, against the same B panel.
  if constexpr (std::is_same_v<ASrc, ADense<false>> && MR == kNarrowMr &&
                NR == kNarrowNr) {
    if (alpha == 1.0f) {
      const TallKernel tall = kTallKernels[n - 1];
      for (; i0 + kTallMr <= i1; i0 += kTallMr) {
        tall(depth, asrc.a + i0 * asrc.lda + pc, asrc.lda, b_pack, c + i0 * n);
      }
    }
  }
#endif
  ws::ArenaScope scratch;
  float* a_pack = scratch.floats(static_cast<size_t>(kKc * MR));
  for (int64_t ic = i0; ic < i1; ic += MR) {
    const int64_t rows = std::min<int64_t>(MR, i1 - ic);
    const ATile a = asrc.template tile<MR>(ic, rows, pc, depth, alpha, a_pack);
    for (int64_t jb = 0; jb < n; jb += NR) {
      const int64_t cols = std::min<int64_t>(NR, n - jb);
      micro_kernel<MR, NR>(rows, cols, depth, a,
                           b_pack + (jb / NR) * depth * NR, c + ic * n + jb,
                           n);
    }
  }
}

void scale_c(float* c, int64_t count, float beta) {
  if (beta == 0.0f) {
    std::fill(c, c + count, 0.0f);
  } else if (beta != 1.0f) {
    for (int64_t i = 0; i < count; ++i) c[i] *= beta;
  }
}

// Strip loop of the driver for one tile geometry: per K strip, pack the B
// panel ONCE into the caller's arena, then hand row ranges to the pool.
// Every worker chunk reads the same packed panel instead of re-packing its
// own copy — the redundant per-chunk B pack was the dominant serial-work
// multiplier that kept multi-thread GEMM scaling flat. The beta pass rides
// on the first strip's dispatch, keeping one dispatch per strip.
//
// Determinism: the row partition is the same static_chunk arithmetic for
// every strip, each element's operation order (beta scale, then p-ascending
// fma chain across ascending strips) is untouched, and tile grouping never
// mixes rows or columns — so bits remain independent of both thread count
// and the strip barriers.
template <class ASrc, class BSrc, int MR, int NR>
void run_strips(int64_t m, int64_t n, int64_t k, float alpha, const ASrc& asrc,
                const BSrc& bsrc, float beta, float* c) {
  ws::ArenaScope scratch;
  const int64_t jblocks = (n + NR - 1) / NR;
  float* b_pack = scratch.floats(static_cast<size_t>(jblocks * kKc * NR));
  const int64_t grain = gemm_grain(n, k);
  for (int64_t pc = 0; pc < k; pc += kKc) {
    const int64_t depth = std::min(kKc, k - pc);
    bsrc.template pack_panel<NR>(pc, depth, n, b_pack);
    parallel_for(
        0, m,
        [&](int64_t i0, int64_t i1) {
          if (pc == 0) scale_c(c + i0 * n, (i1 - i0) * n, beta);
          run_rows<ASrc, MR, NR>(i0, i1, n, pc, depth, alpha, asrc, b_pack,
                                 c);
        },
        grain);
  }
}

// Shared parallel driver. Chunks own contiguous row ranges of C: beta pass,
// then K-strip accumulation. Per element the operations (and their order)
// are the same for any partition, so results are bit-identical for every
// thread count.
template <class ASrc, class BSrc>
void gemm_driver(int64_t m, int64_t n, int64_t k, float alpha,
                 const ASrc& asrc, const BSrc& bsrc, float beta, float* c) {
  if (alpha == 0.0f || k == 0) {
    parallel_for(
        0, m,
        [&](int64_t i0, int64_t i1) {
          scale_c(c + i0 * n, (i1 - i0) * n, beta);
        },
        gemm_grain(n, k));
    return;
  }
  if (n <= kNarrowCutoff) {
    run_strips<ASrc, BSrc, kNarrowMr, kNarrowNr>(m, n, k, alpha, asrc, bsrc,
                                                 beta, c);
#if defined(CHAM_GEMM_USE_AVX512)
  } else if (n > kWideCutoff) {
    run_strips<ASrc, BSrc, kZmmMr, kZmmNr>(m, n, k, alpha, asrc, bsrc, beta,
                                           c);
#endif
  } else {
    run_strips<ASrc, BSrc, kWideMr, kWideNr>(m, n, k, alpha, asrc, bsrc,
                                             beta, c);
  }
}

#if CHAM_CHECKS_LEVEL >= 1
// True if the half-open byte ranges of two operand panels overlap; used for
// the no-alias precondition (C must not alias A or B — the kernels stream A/B
// while writing C in place).
bool ranges_overlap(const float* p, int64_t pn, const float* q, int64_t qn) {
  const auto pb = reinterpret_cast<uintptr_t>(p);
  const auto qb = reinterpret_cast<uintptr_t>(q);
  const auto pe = pb + static_cast<uintptr_t>(pn) * sizeof(float);
  const auto qe = qb + static_cast<uintptr_t>(qn) * sizeof(float);
  return pb < qe && qb < pe;
}

// Shared entry contract of the three kernels: non-negative extents, non-null
// panels for non-empty operands, and C aliasing neither input.
void check_gemm_args(const char* name, int64_t m, int64_t n, int64_t k,
                     const float* a, const float* b, const float* c,
                     int64_t a_elems, int64_t b_elems) {
  CHAM_CHECK(m >= 0 && n >= 0 && k >= 0,
             std::string(name) + ": negative extent m/n/k = " +
                 std::to_string(m) + "/" + std::to_string(n) + "/" +
                 std::to_string(k));
  CHAM_CHECK(c != nullptr || m * n == 0, std::string(name) + ": null C");
  CHAM_CHECK((a != nullptr && b != nullptr) || m * n == 0 || k == 0,
             std::string(name) + ": null A/B panel");
  CHAM_CHECK(!ranges_overlap(a, a_elems, c, m * n) &&
                 !ranges_overlap(b, b_elems, c, m * n),
             std::string(name) + ": C aliases an input panel");
}

// Entry contract of the gather kernels: the pointer array itself must be
// present, every gathered pointer must be non-null, and none of the gathered
// spans may alias C (the core streams gathered panels while writing C in
// place). The per-pointer scan is O(m) on an O(k)-per-row operand, so it
// stays in the always-on tier.
void check_gather_ptrs(const char* name, const float* const* ptrs,
                       int64_t count, int64_t span, const float* c,
                       int64_t c_elems) {
  CHAM_CHECK(ptrs != nullptr || count == 0 || c_elems == 0,
             std::string(name) + ": null gather pointer array");
  if (ptrs == nullptr) return;
  for (int64_t i = 0; i < count; ++i) {
    CHAM_CHECK(ptrs[i] != nullptr,
               std::string(name) + ": null gathered pointer at index " +
                   std::to_string(i));
    CHAM_CHECK(!ranges_overlap(ptrs[i], span, c, c_elems),
               std::string(name) + ": C aliases gathered span " +
                   std::to_string(i));
  }
}
#define CHAM_GEMM_CHECK(...) check_gemm_args(__VA_ARGS__)
#define CHAM_GEMM_GATHER_CHECK(...) check_gather_ptrs(__VA_ARGS__)
#else
#define CHAM_GEMM_CHECK(...) ((void)0)
#define CHAM_GEMM_GATHER_CHECK(...) ((void)0)
#endif

}  // namespace

const char* gemm_simd_variant() {
#if defined(CHAM_GEMM_USE_AVX512)
  return "avx512";
#elif defined(CHAM_GEMM_USE_AVX2)
  return "avx2";
#elif defined(CHAM_GEMM_USE_NEON)
  return "neon";
#else
  return "generic";
#endif
}

void gemm(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
          const float* b, float beta, float* c) {
  CHAM_GEMM_CHECK("gemm", m, n, k, a, b, c, m * k, k * n);
  if (m <= 0 || n <= 0) return;
  gemm_driver(m, n, k, alpha, ADense<false>{a, k}, BDense<false>{b, n}, beta,
              c);
}

void gemm_at_b(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
               const float* b, float beta, float* c) {
  CHAM_GEMM_CHECK("gemm_at_b", m, n, k, a, b, c, k * m, k * n);
  if (m <= 0 || n <= 0) return;
  // C[i][j] += sum_p A[p][i] * B[p][j]: the transposed A pack reads column
  // i of the KxM operand; everything downstream is the shared core.
  gemm_driver(m, n, k, alpha, ADense<true>{a, m}, BDense<false>{b, n}, beta,
              c);
}

void gemm_a_bt(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
               const float* b, float beta, float* c) {
  CHAM_GEMM_CHECK("gemm_a_bt", m, n, k, a, b, c, m * k, n * k);
  if (m <= 0 || n <= 0) return;
  // C[i][j] += dot(A row i, B row j): the transposed B pack reads row j of
  // the NxK operand. Accumulation is the same p-ascending float fma chain
  // as the other kernels (this used to be a per-element double dot, which
  // made the three kernels disagree in precision and resisted blocking).
  gemm_driver(m, n, k, alpha, ADense<false>{a, k}, BDense<true>{b, k}, beta,
              c);
}

void gemm_gather_a_bt(int64_t m, int64_t n, int64_t k, float alpha,
                      const float* const* a_rows, const float* b, float beta,
                      float* c) {
  CHAM_GEMM_CHECK("gemm_gather_a_bt", m, n, k, b, b, c, n * k, n * k);
  CHAM_GEMM_GATHER_CHECK("gemm_gather_a_bt", a_rows, m, k, c, m * n);
  if (m <= 0 || n <= 0) return;
  // gemm_a_bt with logical A row i gathered from a_rows[i]: only the pack's
  // load addresses differ from the dense kernel, so the result is
  // bit-identical to stacking the rows first.
  gemm_driver(m, n, k, alpha, AGatherRows{a_rows}, BDense<true>{b, k}, beta,
              c);
}

void gemm_at_b_gather_b(int64_t m, int64_t n, int64_t k, float alpha,
                        const float* a, const float* const* b_rows,
                        float beta, float* c) {
  CHAM_GEMM_CHECK("gemm_at_b_gather_b", m, n, k, a, a, c, k * m, k * m);
  CHAM_GEMM_GATHER_CHECK("gemm_at_b_gather_b", b_rows, k, n, c, m * n);
  if (m <= 0 || n <= 0) return;
  // gemm_at_b with logical B row p gathered from b_rows[p].
  gemm_driver(m, n, k, alpha, ADense<true>{a, m}, BGatherRows{b_rows}, beta,
              c);
}

void gemm_gather_cols(int64_t m, int64_t n, int64_t k, float alpha,
                      const float* a, const float* const* b_cols,
                      int64_t b_col_stride, float beta, float* c) {
  CHAM_GEMM_CHECK("gemm_gather_cols", m, n, k, a, a, c, m * k, m * k);
  CHAM_CHECK(b_col_stride >= 1, "gemm_gather_cols: column stride must be >= 1");
  CHAM_GEMM_GATHER_CHECK("gemm_gather_cols", b_cols, n,
                         k > 0 ? (k - 1) * b_col_stride + 1 : 0, c, m * n);
  if (m <= 0 || n <= 0) return;
  // gemm with logical B element (p, j) gathered from b_cols[j][p * stride]:
  // serves the pointwise-conv forward straight from per-sample latent
  // storage with no xcat staging buffer.
  gemm_driver(m, n, k, alpha, ADense<false>{a, k},
              BGatherCols{b_cols, b_col_stride}, beta, c);
}

namespace ref {

// The reference kernels mirror the packed core's arithmetic one element at
// a time: beta pass first, then for each C element a p-ascending cham_fma
// chain with alpha folded into the A operand. An alpha of exactly 1
// multiplies through unchanged, so no special case is needed to match the
// packed kernels' alpha==1 copy pack.
void gemm(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
          const float* b, float beta, float* c) {
  if (m <= 0 || n <= 0) return;
  scale_c(c, m * n, beta);
  if (alpha == 0.0f || k == 0) return;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = c[i * n + j];
      for (int64_t p = 0; p < k; ++p) {
        acc = cham_fma(alpha * a[i * k + p], b[p * n + j], acc);
      }
      c[i * n + j] = acc;
    }
  }
}

void gemm_at_b(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
               const float* b, float beta, float* c) {
  if (m <= 0 || n <= 0) return;
  scale_c(c, m * n, beta);
  if (alpha == 0.0f || k == 0) return;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = c[i * n + j];
      for (int64_t p = 0; p < k; ++p) {
        acc = cham_fma(alpha * a[p * m + i], b[p * n + j], acc);
      }
      c[i * n + j] = acc;
    }
  }
}

void gemm_a_bt(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
               const float* b, float beta, float* c) {
  if (m <= 0 || n <= 0) return;
  scale_c(c, m * n, beta);
  if (alpha == 0.0f || k == 0) return;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = c[i * n + j];
      for (int64_t p = 0; p < k; ++p) {
        acc = cham_fma(alpha * a[i * k + p], b[j * k + p], acc);
      }
      c[i * n + j] = acc;
    }
  }
}

}  // namespace ref

Tensor matmul(const Tensor& a, const Tensor& b) {
  CHAM_CHECK(a.rank() == 2 && b.rank() == 2,
             "matmul of " + a.shape().to_string() + " @ " +
                 b.shape().to_string());
  CHAM_CHECK(a.dim(1) == b.dim(0),
             "matmul inner-dim mismatch: " + a.shape().to_string() + " @ " +
                 b.shape().to_string());
  Tensor c({a.dim(0), b.dim(1)});
  gemm(a.dim(0), b.dim(1), a.dim(1), 1.0f, a.data(), b.data(), 0.0f, c.data());
  return c;
}

}  // namespace cham
