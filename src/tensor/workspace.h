// Workspace memory for the compute hot path: a recycling pool for Tensor
// storage and a per-thread bump arena for kernel scratch.
//
// The replay loop runs the same layer shapes every step, so after a short
// warm-up every allocation it makes is a repeat of one it made before. Two
// mechanisms exploit that:
//
//   Pool   A process-wide size-class freelist behind PoolAllocator<float>
//          (the allocator of Tensor storage). Freed buffers go to a
//          power-of-two class list instead of the heap; the next Tensor of
//          a similar size reuses them. Steady state: zero heap traffic.
//
//   Arena  A thread-local bump allocator for transient kernel scratch
//          (GEMM pack panels, im2col column matrices). ArenaScope rewinds
//          on destruction, so scratch costs a pointer bump, never a free.
//          Chunks grow geometrically during warm-up and consolidate into
//          one block once idle; after that, allocation never touches the
//          heap again.
//
// Both report into WorkspaceStats (high-water marks, heap refills, freelist
// hits), which bench_kernels reads directly.
//
// Thread-safety: the pool is mutex-protected (Tensors are created on any
// thread); each arena belongs to exactly one thread. stats() may be called
// concurrently with use.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cham::ws {

struct WorkspaceStats {
  int64_t pool_heap_allocs = 0;     // freelist misses that hit the heap
  int64_t pool_freelist_hits = 0;   // served from the global freelist
  int64_t pool_local_hits = 0;      // served lock-free from a thread cache
  int64_t pool_bytes_in_use = 0;    // pool capacity currently handed out
  int64_t pool_high_water_bytes = 0;
  int64_t arena_reserved_bytes = 0;   // chunk capacity across all arenas
  int64_t arena_high_water_bytes = 0;  // max live scratch in any one arena
};

// Snapshot of the pool counters plus every live arena. Thread-safe.
WorkspaceStats stats();

// Zeroes the cumulative counters and re-bases the high-water marks at the
// current usage (for tests and benchmarks that measure steady-state deltas).
void reset_stats();

// Raw pool entry points (used by PoolAllocator; exposed for tests).
// Capacity is the power-of-two size class of `bytes`; acquire/release must
// agree on `bytes` for a given block, which allocator usage guarantees.
void* pool_acquire(std::size_t bytes);
void pool_release(void* p, std::size_t bytes);
// The capacity pool_acquire(bytes) hands out and counts in
// pool_bytes_in_use: the power-of-two size class of `bytes`, 64 B at least.
std::size_t pool_block_bytes(std::size_t bytes);
// Under AddressSanitizer a released block waits, poisoned, in a per-thread
// FIFO of this many blocks before pool_acquire may hand it out again, so a
// read through a stale pointer is reported even when the next tensor of
// the size class is bound right after the release. 0 in other builds.
#if defined(__SANITIZE_ADDRESS__)
constexpr std::size_t kPoolQuarantine = 16;
#else
constexpr std::size_t kPoolQuarantine = 0;
#endif

// Stateless std::vector allocator backed by the pool. All instances compare
// equal, so pooled vectors move and swap freely across Tensors.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) {}  // NOLINT(google-explicit-*)

  T* allocate(std::size_t n) {
    return static_cast<T*>(pool_acquire(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) { pool_release(p, n * sizeof(T)); }

  bool operator==(const PoolAllocator&) const { return true; }
  bool operator!=(const PoolAllocator&) const { return false; }
};

// The storage type of Tensor (tensor.h).
using FloatBuffer = std::vector<float, PoolAllocator<float>>;

// Encoded stored state: learner blobs, their sections and delta frames
// (core/checkpoint.h). Eviction snapshots are the same size every cycle,
// so after warm-up the serving runtime's snapshot path never touches the
// heap (the pool freelist recycles the blob class).
using ByteBuf = std::vector<char, PoolAllocator<char>>;

// Thread-local bump allocator for kernel scratch. Never returns memory to
// the heap while live; rewinding reclaims everything past a mark in O(1).
class Arena {
 public:
  // The calling thread's arena (created on first use, lives as long as the
  // thread; pool worker threads never exit, so their arenas are permanent).
  static Arena& local();

  Arena();
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // 64-byte-aligned scratch of n floats, valid until a rewind past the mark
  // taken before this call. Never returns nullptr (throws std::bad_alloc on
  // exhaustion like the heap would).
  float* alloc_floats(std::size_t n);

  struct Mark {
    std::size_t chunk = 0;
    std::size_t used = 0;
  };
  Mark mark() const { return {active_, chunk_used_}; }
  void rewind(Mark m);

  // Owner-thread only: walks chunks_, which the owner mutates freely.
  std::size_t live_bytes() const;
  // Safe from any thread (reads the atomic gauge, not chunks_).
  std::size_t reserved_bytes() const {
    return reserved_.load(std::memory_order_relaxed);
  }
  std::size_t high_water_bytes() const {
    return high_water_.load(std::memory_order_relaxed);
  }
  // Owner-thread only (live_bytes walks chunks_): reset_stats() callers
  // must be quiescent — no other thread allocating — which tests and
  // benchmarks measuring steady-state deltas are by construction.
  void rebase_high_water() {
    high_water_.store(live_bytes(), std::memory_order_relaxed);
  }

 private:
  struct Chunk {
    std::vector<std::byte> raw;  // over-allocated for 64-byte alignment
    std::byte* base = nullptr;   // aligned start
    std::size_t cap = 0;         // usable bytes
    std::size_t used = 0;
  };
  void add_chunk(std::size_t min_bytes);

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;      // index of the chunk being bumped
  std::size_t chunk_used_ = 0;  // bytes used in the active chunk
  // Monitoring gauges, written only by the owner thread but polled by
  // ws::stats() from any thread (ordering policy case 3, util/sync.h:
  // relaxed is enough — stats never gate control flow). stats() used to
  // walk chunks_ cross-thread for reserved bytes, racing the owner's
  // add_chunk/consolidation; the gauge removes that race.
  std::atomic<std::size_t> high_water_{0};
  std::atomic<std::size_t> reserved_{0};
};

// RAII scratch scope: everything allocated through it is reclaimed when the
// scope dies. Scopes nest (inner scopes rewind first).
class ArenaScope {
 public:
  ArenaScope() : arena_(Arena::local()), mark_(arena_.mark()) {}
  ~ArenaScope() { arena_.rewind(mark_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  float* floats(std::size_t n) { return arena_.alloc_floats(n); }

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

}  // namespace cham::ws
