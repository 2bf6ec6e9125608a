// Workspace memory subsystem: arena alignment / rewind / high-water
// accounting, pool freelist recycling and reset semantics, and the
// end-to-end property the subsystem exists for — a steady-state ChameleonLearner::observe() that performs
// zero heap allocations (verified with a counting global operator new).
// The wire codec's steady-state contract (net/protocol.h) is checked with
// the same counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>

#include "core/chameleon.h"
#include "data/latent_cache.h"
#include "net/protocol.h"
#include "nn/layers.h"
#include "nn/sequential.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"
#include "util/check.h"

// ---------------------------------------------------------------------------
// Counting global new/delete: every heap allocation in this binary (gtest's
// included) bumps the counter; tests snapshot around the region of interest.
// All overloads forward to malloc/aligned_alloc, so ASan still sees and
// checks every allocation and leak.
namespace {

std::atomic<long long> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t rounded = ((n ? n : 1) + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded);
  if (!p) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace cham {
namespace {

// ------------------------------------------------------------------ Arena

TEST(Arena, Returns64ByteAlignedPointers) {
  ws::ArenaScope scope;
  for (std::size_t n : {1u, 3u, 17u, 100u, 4096u}) {
    const float* p = scope.floats(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u) << "n=" << n;
  }
}

TEST(Arena, RewindReusesTheSameMemory) {
  // Warm the arena so capacity exists and no growth happens mid-test.
  { ws::ArenaScope warm; (void)warm.floats(10000); }
  float* p1 = nullptr;
  float* p2 = nullptr;
  {
    ws::ArenaScope scope;
    p1 = scope.floats(1000);
    p1[0] = 1.0f;
  }
  {
    ws::ArenaScope scope;
    p2 = scope.floats(1000);
  }
  EXPECT_EQ(p1, p2);  // the scope rewound; the bump pointer came back
}

TEST(Arena, NestedScopesRewindInOrder) {
  { ws::ArenaScope warm; (void)warm.floats(10000); }
  ws::Arena& arena = ws::Arena::local();
  const std::size_t live0 = arena.live_bytes();
  {
    ws::ArenaScope outer;
    (void)outer.floats(100);
    const std::size_t live_outer = arena.live_bytes();
    EXPECT_GE(live_outer, live0 + 100 * sizeof(float));
    {
      ws::ArenaScope inner;
      (void)inner.floats(200);
      EXPECT_GE(arena.live_bytes(), live_outer + 200 * sizeof(float));
    }
    EXPECT_EQ(arena.live_bytes(), live_outer);  // inner rewound first
  }
  EXPECT_EQ(arena.live_bytes(), live0);
}

TEST(Arena, HighWaterTracksPeakLiveBytes) {
  ws::Arena& arena = ws::Arena::local();
  arena.rebase_high_water();
  const std::size_t base = arena.high_water_bytes();
  {
    ws::ArenaScope scope;
    (void)scope.floats(4096);
  }
  // The peak survives the rewind.
  EXPECT_GE(arena.high_water_bytes(), base + 4096 * sizeof(float));
  const std::size_t peak = arena.high_water_bytes();
  {
    ws::ArenaScope scope;
    (void)scope.floats(16);
  }
  EXPECT_EQ(arena.high_water_bytes(), peak);  // smaller use doesn't move it
}

// ------------------------------------------------------------------- Pool

TEST(Pool, FreelistRecyclesBlocksLifo) {
  void* p = ws::pool_acquire(4096);
  ASSERT_NE(p, nullptr);
  ws::pool_release(p, 4096);
  // ASan builds hold released blocks in a FIFO before they can be reused
  // (kPoolQuarantine releases long, 0 elsewhere): push p through it with
  // blocks of another class.
  for (std::size_t i = 0; i < ws::kPoolQuarantine; ++i) {
    ws::pool_release(ws::pool_acquire(64), 64);
  }
  void* q = ws::pool_acquire(4096);
  EXPECT_EQ(q, p);  // most recently freed block of the class comes back
  ws::pool_release(q, 4096);
}

TEST(Pool, BlockBytesIsTheCapacityCountedInUse) {
  EXPECT_EQ(ws::pool_block_bytes(1), 64u);
  EXPECT_EQ(ws::pool_block_bytes(64), 64u);
  EXPECT_EQ(ws::pool_block_bytes(65), 128u);
  EXPECT_EQ(ws::pool_block_bytes(4096), 4096u);
  // A fresh thread's cache is empty, so its acquire is counted globally.
  std::thread([] {
    const int64_t before = ws::stats().pool_bytes_in_use;
    void* p = ws::pool_acquire(5000);
    EXPECT_EQ(ws::stats().pool_bytes_in_use - before,
              static_cast<int64_t>(ws::pool_block_bytes(5000)));
    ws::pool_release(p, 5000);
  }).join();
}

TEST(Pool, StatsCountHitsAndRefills) {
  // Drain any prior state for a deterministic window.
  ws::reset_stats();
  const ws::WorkspaceStats before = ws::stats();
  {
    Tensor t({2048});  // pooled storage
    Rng rng(3);
    ops::fill_normal(t, rng, 0.0f, 1.0f);
  }
  Tensor u({2048});  // same size class: must be a cache or freelist hit
  const ws::WorkspaceStats after = ws::stats();
  EXPECT_GT(after.pool_freelist_hits + after.pool_local_hits,
            before.pool_freelist_hits + before.pool_local_hits);
  EXPECT_GE(after.pool_high_water_bytes, after.pool_bytes_in_use);
}

TEST(Pool, ResetStatsRebasesCounters) {
  Tensor held({512});  // keep some capacity checked out across the reset
  ws::reset_stats();
  const ws::WorkspaceStats s = ws::stats();
  EXPECT_EQ(s.pool_heap_allocs, 0);
  EXPECT_EQ(s.pool_freelist_hits, 0);
  // High water re-bases to what is currently live, not to zero.
  EXPECT_GE(s.pool_high_water_bytes, s.pool_bytes_in_use);
  EXPECT_GT(s.pool_bytes_in_use, 0);
}

// ------------------------------------------------------------ tiny learner

struct TinyEnv {
  data::DatasetConfig data_cfg;
  std::unique_ptr<nn::Sequential> f;
  std::unique_ptr<data::LatentCache> latents;
  core::LearnerEnv env;

  TinyEnv() {
    data_cfg = data::core50_config();
    data_cfg.num_classes = 6;
    data_cfg.num_domains = 3;
    data_cfg.image_hw = 8;
    data_cfg.train_instances = 4;

    Rng rng(1);
    f = std::make_unique<nn::Sequential>();
    f->add(std::make_unique<nn::Conv2d>(3, 4, 8, 8, 3, 2, 1, false, rng));
    f->add(std::make_unique<nn::ReLU>());
    latents = std::make_unique<data::LatentCache>(data_cfg, *f);

    env.data_cfg = &data_cfg;
    env.latents = latents.get();
    env.latent_shape = Shape{{4, 4, 4}};
    env.f_fwd_macs = f->macs_per_sample();
    env.lr = 0.01f;
    env.head_factory = [] {
      Rng hrng(2);
      auto g = std::make_unique<nn::Sequential>();
      g->add(std::make_unique<nn::GlobalAvgPool>());
      g->add(std::make_unique<nn::Linear>(4, 6, hrng));
      return g;
    };
  }

  static data::ImageKey key(int32_t cls, int32_t inst) {
    return {cls, 0, inst, false};
  }
};

// ------------------------------------------- steady-state zero allocation

// The whole point of the workspace subsystem: after warm-up, an off-cycle
// observe() step touches the heap zero times — Tensor storage recycles
// through the pool, kernel scratch bumps the arena, and every learner-side
// vector holds its capacity. LT maintenance steps (every h batches) may
// make bounded small allocations and are exempt here.
//
// The full-checks tier allocates audit strings inside observe(), so the
// strict assertion only runs below it.
TEST(SteadyState, ObserveAllocatesNothingOffCycle) {
#if CHAM_CHECKS_LEVEL >= 2
  GTEST_SKIP() << "full-checks tier audits allocate inside observe()";
#else
  TinyEnv env;
  core::ChameleonConfig cc;
  cc.lt_capacity = 24;      // saturates within the warm-up window
  cc.learning_window = 40;  // several recalibrations during warm-up
  core::ChameleonLearner learner(env.env, cc, /*seed=*/7);

  auto make_batch = [](long long s) {
    data::Batch b;
    b.domain = 0;
    for (int i = 0; i < 4; ++i) {
      const long long j = s + i;
      b.keys.push_back({static_cast<int32_t>(j % 6), 0,
                        static_cast<int32_t>(j % 4), false});
      b.labels.push_back(j % 6);
    }
    return b;
  };

  long long step = 0;
  for (; step < 120; ++step) learner.observe(make_batch(step));

  long long worst = 0;
  long long measured = 0;
  for (long long i = 0; i < 40; ++i, ++step) {
    const data::Batch b = make_batch(step);
    const bool lt_cycle = ((step + 1) % cc.lt_period_h) == 0;
    const long long before = g_allocs.load(std::memory_order_relaxed);
    learner.observe(b);
    const long long d = g_allocs.load(std::memory_order_relaxed) - before;
    if (!lt_cycle) {
      ++measured;
      worst = std::max(worst, d);
    }
  }
  EXPECT_GT(measured, 30);
  EXPECT_EQ(worst, 0) << "steady-state observe() touched the heap";
#endif
}

// The chunked predict path rides the same gather machinery as training:
// latent rows are read in place out of the cache and the first layer packs
// GEMM panels straight from them, so a warm predict_batch makes no stacked
// batch copy and touches the heap only for its returned prediction vector.
TEST(SteadyState, ChunkedPredictStaysOffTheHeap) {
#if CHAM_CHECKS_LEVEL >= 2
  GTEST_SKIP() << "full-checks tier audits allocate inside the layers";
#else
  TinyEnv env;
  core::ChameleonConfig cc;
  core::ChameleonLearner learner(env.env, cc, /*seed=*/11);

  std::vector<data::ImageKey> keys;
  for (int32_t i = 0; i < 24; ++i) {
    keys.push_back(TinyEnv::key(i % 6, i % 4));
  }
  // Warm: latent cache filled, scratch vectors at capacity, pool classes
  // populated.
  (void)learner.predict(keys);
  (void)learner.predict(keys);

  long long worst = 0;
  for (int rep = 0; rep < 10; ++rep) {
    const long long before = g_allocs.load(std::memory_order_relaxed);
    const auto preds = learner.predict(keys);
    const long long d = g_allocs.load(std::memory_order_relaxed) - before;
    ASSERT_EQ(preds.size(), keys.size());
    worst = std::max(worst, d);
  }
  // The returned vector<int64_t> is the only permitted allocation.
  EXPECT_LE(worst, 1) << "chunked predict allocated beyond its result";
#endif
}

// The wire codec's steady-state contract (net/protocol.h): once a WireBuf
// and the decoders' caller-owned outputs have seen a frame of each shape,
// encoding every data-path frame type and decoding it back (header, CRC and
// payload) touches the heap zero times. This is the per-frame work NetServer
// and NetClient do on warm buffers.
TEST(SteadyState, WireCodecRoundTripsAllocateNothing) {
  data::Batch batch;
  batch.domain = 1;
  for (int i = 0; i < 8; ++i) {
    batch.keys.push_back({static_cast<int32_t>(i % 6), 0,
                          static_cast<int32_t>(i % 4), false});
    batch.labels.push_back(i % 6);
  }
  const std::vector<data::ImageKey> keys = batch.keys;
  const std::vector<int64_t> preds = {0, 1, 2, 3, 4, 5, 0, 1};

  net::WireBuf buf;
  data::Batch dec_batch;
  std::vector<data::ImageKey> dec_keys;
  std::vector<int64_t> dec_preds;
  net::ErrorInfo dec_err;

  auto round = [&](uint64_t salt) {
    buf.clear();  // capacity survives: this is the contract under test
    net::encode_observe(buf, 7, salt, batch);
    net::encode_predict(buf, 7, salt + 1, keys);
    net::encode_predict_result(buf, 7, salt + 1, preds);
    // Short message: fits std::string's inline storage, like the fixed
    // server-side backpressure/shutdown strings.
    net::encode_error(buf, 7, salt + 3, net::ErrCode::kBackpressure, 5,
                      "busy");
    std::size_t off = 0;
    int frames = 0;
    bool ok = true;
    while (ok && off + net::kHeaderBytes <= buf.size()) {
      net::FrameHeader h;
      ok = net::read_header(buf.data() + off, buf.size() - off, h) &&
           net::header_error(h, net::kDefaultMaxPayload) == net::kHeaderOk;
      if (!ok) break;
      const uint8_t* payload = buf.data() + off + net::kHeaderBytes;
      ok = net::crc32(payload, h.payload_len) == h.payload_crc;
      switch (h.type) {
        case net::MsgType::kObserve:
          ok = ok && net::decode_observe(payload, h.payload_len, dec_batch);
          break;
        case net::MsgType::kPredict:
          ok = ok && net::decode_predict(payload, h.payload_len, dec_keys);
          break;
        case net::MsgType::kPredictResult:
          ok = ok &&
               net::decode_predict_result(payload, h.payload_len, dec_preds);
          break;
        case net::MsgType::kError:
          ok = ok && net::decode_error(payload, h.payload_len, dec_err);
          break;
        default:
          ok = false;
      }
      off += net::kHeaderBytes + h.payload_len;
      ++frames;
    }
    return ok && frames == 4 && off == buf.size();
  };

  for (uint64_t w = 0; w < 32; ++w) ASSERT_TRUE(round(w * 16)) << w;
  bool all_ok = true;
  const long long before = g_allocs.load();
  for (uint64_t i = 0; i < 256; ++i) all_ok = round(1000 + i * 16) && all_ok;
  const long long allocs = g_allocs.load() - before;
  ASSERT_TRUE(all_ok);
  EXPECT_EQ(allocs, 0);
  EXPECT_EQ(dec_batch.keys, batch.keys);
  EXPECT_EQ(dec_batch.labels, batch.labels);
  EXPECT_EQ(dec_keys, keys);
  EXPECT_EQ(dec_preds, preds);
  EXPECT_EQ(dec_err.message, "busy");
}

}  // namespace
}  // namespace cham
