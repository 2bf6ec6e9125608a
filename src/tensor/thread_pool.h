// Shared persistent thread pool with deterministic static range partitioning.
//
// Every compute hot path (GEMM, im2col conv, batched elementwise/softmax,
// evaluation) funnels through parallel_for. Determinism contract: the range
// [begin, end) is split into one contiguous chunk per worker by pure
// arithmetic on (range, num_threads), never by load or arrival order, and
// each chunk writes disjoint output. Because the per-element reduction order
// inside a chunk is identical to the serial loop, results are bit-identical
// for every thread count, including 1 (which short-circuits to an inline
// call on the calling thread — the guaranteed serial fallback).
//
// Dispatch is allocation-free: parallel_for erases the callable to a plain
// function pointer plus a context pointer into the caller's frame (the call
// blocks until every chunk finishes, so the frame outlives the workers'
// use). The previous std::function signature heap-allocated a closure per
// kernel launch, which put an allocator lock on the hot path of every GEMM.
//
// Thread count resolution order: set_num_threads(n) > CHAM_THREADS env var >
// std::thread::hardware_concurrency(). Workers are lazily spawned on first
// parallel use and live for the process lifetime.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>

namespace cham {

// Sets the pool size (clamped to [1, 256]). Resizes the pool on the next
// parallel_for. Safe to call between parallel regions, not from inside one.
void set_num_threads(int n);

// Current thread count the next parallel_for will use.
int num_threads();

namespace detail {
// Type-erased chunk body: fn(ctx, chunk_begin, chunk_end).
using ChunkFn = void (*)(void*, int64_t, int64_t);

// The dispatch engine behind parallel_for. `ctx` must stay valid until the
// call returns (it does: the call blocks on chunk completion).
void parallel_run(int64_t begin, int64_t end, ChunkFn fn, void* ctx,
                  int64_t grain);

// Chunk c of `chunks` equal contiguous pieces of an n-element range (the
// first n % chunks pieces get one extra element). Exposed for tests.
struct Chunk {
  int64_t begin, end;
};
Chunk static_chunk(int64_t n, int chunks, int c);

// Monotonic process-lifetime dispatch counters (relaxed loads; benches and
// regression tests read deltas around a workload). A parallel_for call
// increments exactly one of the two: `pool_inline_runs` when it executed on
// the calling thread without waking the pool (sub-grain range, 1-thread
// pool, or nested region resolved before the pool lock), `pool_dispatches`
// when it published a job and signalled workers.
uint64_t pool_inline_runs();
uint64_t pool_dispatches();
}  // namespace detail

// Work a parallel_for chunk must carry before waking the pool is worth it,
// in scalar units (an element written, a tap accumulated) or in MACs at
// the packed-GEMM rate (gemm.cpp sizes its row chunks by kChunkMacs).
constexpr int64_t kChunkElems = 16384;
constexpr int64_t kChunkMacs = int64_t{1} << 18;

// Work-proportional grain: items per chunk such that one chunk carries at
// least `chunk_work` units when each item costs `work_per_item`. A range
// whose whole work is below one chunk runs inline on the calling thread.
constexpr int64_t work_grain(int64_t work_per_item,
                             int64_t chunk_work = kChunkElems) {
  const int64_t w = work_per_item < 1 ? 1 : work_per_item;
  return (chunk_work + w - 1) / w;
}

// Invokes fn(chunk_begin, chunk_end) over a static partition of [begin, end).
// fn runs on the calling thread when the pool has 1 thread or when the range
// is smaller than `grain` elements; otherwise chunks are handed to the pool
// and the call blocks until every chunk finishes. fn must only write to
// locations owned by its chunk. Exceptions in fn terminate (kernels must not
// throw). Calls under src/ pass `grain` explicitly (cham_lint rule
// parallel-for-grain): the default of 1 wakes the pool for any range of two
// or more items, however little work they hold.
template <typename F>
void parallel_for(int64_t begin, int64_t end, F&& fn, int64_t grain = 1) {
  using Fn = std::remove_reference_t<F>;
  detail::parallel_run(
      begin, end,
      [](void* ctx, int64_t b, int64_t e) { (*static_cast<Fn*>(ctx))(b, e); },
      const_cast<void*>(static_cast<const void*>(std::addressof(fn))), grain);
}

}  // namespace cham
