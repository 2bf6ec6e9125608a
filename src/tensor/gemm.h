// Blocked single-precision GEMM and the matrix primitives the NN layers need.
//
// C (MxN) = alpha * A (MxK) @ B (KxN) + beta * C. Row-major, contiguous.
// All three kernels share one packed register-tiled core: B is packed into
// contiguous zero-padded panels, A tiles are packed too (alpha folded into
// the pack) unless a full tile of a dense A with alpha == 1 can be read in
// place, and a branch-free micro-kernel accumulates a register tile with
// one fused multiply-add per element per K step. The tile depends only on
// the output width n: 8x4 for n <= 8, 4x16 for n <= 16, and for n > 16 an
// 8x32 ZMM tile on AVX-512 builds (4x16 elsewhere). On AVX-512 builds an
// output of n <= 8 columns over a dense row-major A at alpha == 1 (gemm,
// gemm_a_bt, gemm_gather_cols) runs 16-row tall tiles instead of 8x4: one
// ZMM per C column with a row in each lane, A transposed in registers per
// 16-step K block; rows past the last multiple of 16 keep the 8x4 tile.
// Transposed operands differ only in how the pack (or the in-place tile)
// reads memory, so gemm_at_b and gemm_a_bt run at the same rate as gemm.
//
// Determinism contract: every C element accumulates in p-ascending order in
// a single fma chain, chained exactly across K strips through its C slot.
// The order never depends on the thread partition or tile grouping, so
// results are bit-identical for every thread count and bit-identical to the
// serial reference kernels in cham::ref.
//
// SIMD dispatch is compile-time via CHAM_SIMD (CMake: generic|avx2|neon;
// default auto-detects from the target arch, and resolves to AVX-512 where
// the target defines __AVX512F__). Intrinsic kernels perform the same
// per-lane fused multiply-add as the scalar path, preserving bit-identity
// across CHAM_SIMD settings on a given fma-capable target.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

// AVX-512 kernels (gemm.cpp's 8x32 and 16-row tall tiles, DepthwiseConv2d's
// channel lanes) build only under CHAM_SIMD=auto on a target with
// AVX-512F/VL and FMA; an explicit avx2, neon or generic choice keeps them
// out.
#if !defined(CHAM_SIMD_GENERIC) && !defined(CHAM_SIMD_AVX2) &&  \
    !defined(CHAM_SIMD_NEON) && defined(__AVX512F__) &&          \
    defined(__AVX512VL__) && defined(__FMA__)
#define CHAM_SIMD_USE_AVX512 1
#endif

namespace cham {

void gemm(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
          const float* b, float beta, float* c);

// C (MxN) += A^T (A is KxM) @ B (KxN). Used by backward passes.
void gemm_at_b(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
               const float* b, float beta, float* c);

// C (MxN) += A (MxK) @ B^T (B is NxK). Used by backward passes.
void gemm_a_bt(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
               const float* b, float beta, float* c);

// Gather-source kernels. Same packed core, same pack order, same fma
// chains — only the pack's load addresses differ — so results are
// bit-identical to stacking the gathered operand into a dense panel and
// calling the plain kernel. The caller owns the pointer arrays and the
// gathered storage; both must stay valid for the duration of the call
// (worker threads read them inside parallel_for).
//
// gemm_a_bt with a row-gathered A: logical row i of A is the k contiguous
// floats at a_rows[i]. Backs Linear::forward over replay rows gathered
// from ST/LT/incoming latent storage.
void gemm_gather_a_bt(int64_t m, int64_t n, int64_t k, float alpha,
                      const float* const* a_rows, const float* b, float beta,
                      float* c);

// gemm_at_b with a row-gathered B: logical row p of B is the n contiguous
// floats at b_rows[p]. Backs Linear's weight gradient over gathered
// samples.
void gemm_at_b_gather_b(int64_t m, int64_t n, int64_t k, float alpha,
                        const float* a, const float* const* b_rows,
                        float beta, float* c);

// gemm with a column-gathered B: logical element (p, j) of B is
// b_cols[j][p * b_col_stride]. Backs the im2col-free pointwise-conv
// forward over gathered samples (column (sample, pixel) reads the sample's
// latent plane in place, stride = pixels per channel).
void gemm_gather_cols(int64_t m, int64_t n, int64_t k, float alpha,
                      const float* a, const float* const* b_cols,
                      int64_t b_col_stride, float beta, float* c);

// Convenience wrappers on Tensors (2-D only, shapes asserted).
Tensor matmul(const Tensor& a, const Tensor& b);

// Which micro-kernel set this build dispatches to: "avx512", "avx2",
// "neon" or "generic". Reported by bench_kernels so BENCH_kernels.json
// records what was measured.
const char* gemm_simd_variant();

namespace ref {

// Serial scalar reference kernels: a plain triple loop with the same
// per-element fma chain as the packed kernels. They exist as the ground
// truth for the bit-identity tests (test_gemm) and as the baseline the
// kernel benchmarks measure speedups against. Never used on the hot path.
void gemm(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
          const float* b, float beta, float* c);
void gemm_at_b(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
               const float* b, float beta, float* c);
void gemm_a_bt(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
               const float* b, float beta, float* c);

}  // namespace ref

}  // namespace cham
