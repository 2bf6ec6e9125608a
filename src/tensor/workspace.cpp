#include "tensor/workspace.h"

#include <algorithm>
#include <array>
#include <bit>
#include <new>
#include <utility>

#include "util/check.h"
#include "util/sync.h"

// Under AddressSanitizer a block parked in the pool is poisoned until it is
// handed out again, so a write through a stale pointer into storage already
// given back (a released gradient, say) is reported where it happens
// instead of landing in the next owner's buffer. Released blocks also wait
// out a per-thread quarantine (kPoolQuarantine) first: the thread cache is
// LIFO, and would otherwise hand a block just released (a layer's x-hat,
// say) to the very next tensor of its class, unpoisoning it before a stale
// read could be seen.
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define CHAM_POOL_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define CHAM_POOL_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define CHAM_POOL_POISON(p, n) ((void)(p), (void)(n))
#define CHAM_POOL_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace cham::ws {
namespace {

// ------------------------------------------------------------------ pool

constexpr std::size_t kMinClassBytes = 64;  // smallest size class (2^6)
constexpr int kMinClassLog2 = 6;
constexpr int kNumClasses = 42;  // up to 2^47 bytes, far beyond any tensor

int size_class(std::size_t bytes) {
  const std::size_t b = std::max(bytes, kMinClassBytes);
  const int log2 = std::bit_width(b - 1);  // ceil(log2(b))
  return std::max(log2, kMinClassLog2) - kMinClassLog2;
}

std::size_t class_bytes(int cls) {
  return std::size_t{1} << (cls + kMinClassLog2);
}

struct PoolImpl {
  util::Mutex mu;
  std::array<std::vector<void*>, kNumClasses> free_lists CHAM_GUARDED_BY(mu);
  int64_t heap_allocs CHAM_GUARDED_BY(mu) = 0;
  int64_t freelist_hits CHAM_GUARDED_BY(mu) = 0;
  int64_t bytes_in_use CHAM_GUARDED_BY(mu) = 0;
  int64_t high_water CHAM_GUARDED_BY(mu) = 0;
};

PoolImpl& pool() {
  // Intentionally leaked: freed blocks must stay reachable through the
  // freelists for the process lifetime (detached pool workers may release
  // storage at any point), and tearing the lists down at exit would race
  // with them. Reachable-by-design keeps LeakSanitizer quiet.
  static PoolImpl* p = new PoolImpl();  // cham-lint: allow(naked-new)
  return *p;
}

// --------------------------------------------- thread-pinned pool cache
//
// A small per-thread freelist in front of the global pool. Each serve
// shard runs its sessions on one pinned worker thread, so the steady-state
// allocation pattern is thread-periodic: the same activation and scratch
// buffer sizes recycle on the same thread every step. Serving those repeats
// from a thread-local cache makes the hot path lock-free and stops shard
// workers convoying on the global pool mutex.
//
// Accounting: a parked block still counts as in-use in the global gauges
// (it was acquired under p.mu and never globally released); only cache
// overflow and thread exit return blocks to the global freelist. Local
// hits are counted in a relaxed atomic reported as pool_local_hits.

constexpr int kLocalClasses = 17;  // classes up to 4 MiB (2^22 bytes)
constexpr std::size_t kLocalPerClass = 4;

std::atomic<int64_t> g_local_hits{0};

// Trivially-destructible tombstone: once the cache's destructor has run
// (thread exit), later pool calls from this thread — e.g. other TLS
// destructors releasing tensors — must fall through to the global path
// instead of resurrecting the dead cache.
thread_local bool t_cache_dead = false;

struct LocalCache {
  std::array<std::vector<void*>, static_cast<std::size_t>(kLocalClasses)>
      lists;
#if defined(__SANITIZE_ADDRESS__)
  // Released blocks on their way to `lists` or the global pool, oldest at
  // quarantine_head (a null ptr is an empty slot): a fixed ring, so the
  // quarantine allocates nothing.
  struct Parked {
    void* ptr = nullptr;
    int cls = 0;
  };
  std::array<Parked, kPoolQuarantine> quarantine{};
  std::size_t quarantine_head = 0;
#endif
  ~LocalCache();
};

LocalCache* local_cache() {
  if (t_cache_dead) return nullptr;
  thread_local LocalCache cache;
  return &cache;
}

// --------------------------------------------------------- arena registry

struct ArenaRegistry {
  util::Mutex mu;
  std::vector<Arena*> arenas CHAM_GUARDED_BY(mu);
};

ArenaRegistry& registry() {
  // Leaked for the same reason as the pool: worker-thread arenas outlive
  // static destruction order.
  static ArenaRegistry* r = new ArenaRegistry();  // cham-lint: allow(naked-new)
  return *r;
}

constexpr std::size_t kArenaAlign = 64;
constexpr std::size_t kArenaMinChunk = 1 << 16;  // 64 KiB first chunk

std::size_t align_up(std::size_t n) {
  return (n + kArenaAlign - 1) & ~(kArenaAlign - 1);
}

// Returns one block to the global freelist (the only place cache-held
// blocks give up their in-use accounting).
void global_release(void* ptr, int cls) {
  PoolImpl& p = pool();
  util::MutexLock lock(p.mu);
  p.free_lists[static_cast<std::size_t>(cls)].push_back(ptr);
  p.bytes_in_use -= static_cast<int64_t>(class_bytes(cls));
}

LocalCache::~LocalCache() {
#if defined(__SANITIZE_ADDRESS__)
  for (const Parked& q : quarantine) {
    if (q.ptr != nullptr) global_release(q.ptr, q.cls);
  }
#endif
  for (int cls = 0; cls < kLocalClasses; ++cls) {
    for (void* ptr : lists[static_cast<std::size_t>(cls)]) {
      global_release(ptr, cls);
    }
  }
  t_cache_dead = true;
}

}  // namespace

std::size_t pool_block_bytes(std::size_t bytes) {
  return class_bytes(size_class(bytes));
}

void* pool_acquire(std::size_t bytes) {
  const int cls = size_class(bytes);
  CHAM_CHECK(cls < kNumClasses, "pool_acquire: oversized request of " +
                                    std::to_string(bytes) + " bytes");
  if (cls < kLocalClasses) {
    if (LocalCache* cache = local_cache()) {
      auto& list = cache->lists[static_cast<std::size_t>(cls)];
      if (!list.empty()) {
        void* block = list.back();
        list.pop_back();
        g_local_hits.fetch_add(1, std::memory_order_relaxed);
        CHAM_POOL_UNPOISON(block, class_bytes(cls));
        return block;
      }
    }
  }
  const std::size_t cap = class_bytes(cls);
  PoolImpl& p = pool();
  void* block = nullptr;
  {
    util::MutexLock lock(p.mu);
    auto& list = p.free_lists[static_cast<std::size_t>(cls)];
    if (!list.empty()) {
      block = list.back();
      list.pop_back();
      ++p.freelist_hits;
    } else {
      ++p.heap_allocs;
    }
    p.bytes_in_use += static_cast<int64_t>(cap);
    p.high_water = std::max(p.high_water, p.bytes_in_use);
  }
  if (block == nullptr) {
    block = ::operator new(cap, std::align_val_t{kArenaAlign});
  } else {
    CHAM_POOL_UNPOISON(block, cap);
  }
  return block;
}

void pool_release(void* ptr, std::size_t bytes) {
  if (ptr == nullptr) return;
  int cls = size_class(bytes);
  CHAM_POOL_POISON(ptr, class_bytes(cls));
#if defined(__SANITIZE_ADDRESS__)
  // The block takes the oldest slot of the FIFO, and the block that slot
  // held (still poisoned) is parked below instead.
  if (LocalCache* cache = local_cache()) {
    auto& slot = cache->quarantine[cache->quarantine_head];
    cache->quarantine_head = (cache->quarantine_head + 1) % kPoolQuarantine;
    std::swap(slot.ptr, ptr);
    std::swap(slot.cls, cls);
    if (ptr == nullptr) return;
  }
#endif
  if (cls < kLocalClasses) {
    if (LocalCache* cache = local_cache()) {
      auto& list = cache->lists[static_cast<std::size_t>(cls)];
      if (list.size() < kLocalPerClass) {
        list.push_back(ptr);
        return;
      }
    }
  }
  global_release(ptr, cls);
}

// ------------------------------------------------------------------ arena

Arena& Arena::local() {
  thread_local Arena arena;
  return arena;
}

Arena::Arena() {
  ArenaRegistry& r = registry();
  util::MutexLock lock(r.mu);
  r.arenas.push_back(this);
}

Arena::~Arena() {
  ArenaRegistry& r = registry();
  util::MutexLock lock(r.mu);
  std::erase(r.arenas, this);
}

void Arena::add_chunk(std::size_t min_bytes) {
  Chunk c;
  const std::size_t last_cap = chunks_.empty() ? 0 : chunks_.back().cap;
  c.cap = std::max({align_up(min_bytes), 2 * last_cap, kArenaMinChunk});
  c.raw.resize(c.cap + kArenaAlign);
  const auto addr = reinterpret_cast<std::uintptr_t>(c.raw.data());
  const std::uintptr_t aligned = (addr + kArenaAlign - 1) & ~(kArenaAlign - 1);
  c.base = c.raw.data() + (aligned - addr);
  c.used = 0;
  reserved_.fetch_add(c.cap, std::memory_order_relaxed);
  chunks_.push_back(std::move(c));
}

float* Arena::alloc_floats(std::size_t n) {
  const std::size_t bytes = align_up(std::max<std::size_t>(n, 1) * sizeof(float));
  // Fully idle with fragmented chunks: consolidate into one block sized for
  // the high-water mark, so the steady state bumps inside a single chunk.
  if (active_ == 0 && chunk_used_ == 0 && chunks_.size() > 1) {
    const std::size_t want = std::max(
        align_up(high_water_.load(std::memory_order_relaxed)), bytes);
    chunks_.clear();
    reserved_.store(0, std::memory_order_relaxed);
    add_chunk(want);
  }
  while (active_ < chunks_.size() && chunk_used_ + bytes > chunks_[active_].cap) {
    chunks_[active_].used = chunk_used_;
    ++active_;
    chunk_used_ = 0;
  }
  if (active_ == chunks_.size()) add_chunk(bytes);
  float* out = reinterpret_cast<float*>(chunks_[active_].base + chunk_used_);
  chunk_used_ += bytes;
  chunks_[active_].used = chunk_used_;
  // Single-writer max; relaxed load+store is race-free because only the
  // owner thread writes (ordering policy case 3, util/sync.h).
  const std::size_t live = live_bytes();
  if (live > high_water_.load(std::memory_order_relaxed)) {
    high_water_.store(live, std::memory_order_relaxed);
  }
  return out;
}

void Arena::rewind(Mark m) {
  CHAM_DCHECK(m.chunk <= active_, "Arena::rewind to a future mark");
  for (std::size_t i = m.chunk + 1; i <= active_ && i < chunks_.size(); ++i) {
    chunks_[i].used = 0;
  }
  active_ = m.chunk;
  chunk_used_ = m.used;
  if (!chunks_.empty()) chunks_[active_].used = chunk_used_;
}

std::size_t Arena::live_bytes() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < active_ && i < chunks_.size(); ++i) {
    total += chunks_[i].used;
  }
  return total + chunk_used_;
}

// ------------------------------------------------------------------ stats

WorkspaceStats stats() {
  WorkspaceStats s;
  {
    PoolImpl& p = pool();
    util::MutexLock lock(p.mu);
    s.pool_heap_allocs = p.heap_allocs;
    s.pool_freelist_hits = p.freelist_hits;
    s.pool_local_hits = g_local_hits.load(std::memory_order_relaxed);
    s.pool_bytes_in_use = p.bytes_in_use;
    s.pool_high_water_bytes = p.high_water;
  }
  {
    ArenaRegistry& r = registry();
    util::MutexLock lock(r.mu);
    for (const Arena* a : r.arenas) {
      s.arena_reserved_bytes += static_cast<int64_t>(a->reserved_bytes());
      s.arena_high_water_bytes =
          std::max(s.arena_high_water_bytes,
                   static_cast<int64_t>(a->high_water_bytes()));
    }
  }
  return s;
}

void reset_stats() {
  {
    PoolImpl& p = pool();
    util::MutexLock lock(p.mu);
    p.heap_allocs = 0;
    p.freelist_hits = 0;
    g_local_hits.store(0, std::memory_order_relaxed);
    p.high_water = p.bytes_in_use;
  }
  {
    ArenaRegistry& r = registry();
    util::MutexLock lock(r.mu);
    for (Arena* a : r.arenas) a->rebase_high_water();
  }
}

}  // namespace cham::ws
