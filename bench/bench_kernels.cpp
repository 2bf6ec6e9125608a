// Kernel and allocation report for the replay hot loop.
//
// Three sections, one JSON artefact (BENCH_kernels.json):
//
//   gemm   The packed register-tiled kernels (gemm / gemm_at_b / gemm_a_bt)
//          against the serial scalar reference kernels in cham::ref on the
//          MobileNet-head shapes: single-thread GFLOP/s for both, the
//          speedup ratio, and a 1/2/4-thread scaling curve for the packed
//          kernel. The speedup on the m=256,k=256 head shapes is the
//          acceptance gate for the vectorized micro-kernels. The served_*
//          rows are the served head's 30-row step (pointwise conv layers
//          23, 25 and 27: forward and weight gradient) and its single-key
//          predict forward, reported ungated.
//
//   conv   The direct NHW-flattened fast path for 1x1 stride-1 convolutions
//          against the im2col lowering it replaced, on the head pointwise
//          shape (256 -> 256 channels over a 2x2 latent, batch 32). Both
//          paths run the same GEMM kernels, so their ratio would read a
//          kernel gain as a loss; only the two times are reported.
//
//   alloc  Heap traffic of ChameleonLearner::observe() measured with a
//          counting global operator new: bytes/calls on the first (cold)
//          step versus the steady state after warm-up. Off-cycle steps must
//          allocate nothing — Tensor storage recycles through the workspace
//          pool and kernel scratch lives in the per-thread arenas; the
//          every-h LT maintenance step may make bounded small allocations
//          (reported separately). Workspace pool/arena gauges are included.
//
//   ./build/bench/bench_kernels [--reps N] [--out PATH]
//
// Any other argument is refused (exit 2) before anything runs or is
// written.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/chameleon.h"
#include "data/latent_cache.h"
#include "nn/layers.h"
#include "nn/sequential.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "tensor/thread_pool.h"
#include "tensor/workspace.h"

// ---------------------------------------------------------------------------
// Heap instrumentation. The point of the workspace arena is that the steady
// state replay loop stops calling the allocator, so this binary replaces the
// global new/delete pair with counting versions and snapshots the counters
// around observe(). Everything (including the workspace pool's own refills,
// which go through the aligned overload) is counted.
namespace {

std::atomic<long long> g_heap_allocs{0};
std::atomic<long long> g_heap_bytes{0};

struct HeapSnapshot {
  long long allocs = 0;
  long long bytes = 0;
};

HeapSnapshot heap_now() {
  return {g_heap_allocs.load(std::memory_order_relaxed),
          g_heap_bytes.load(std::memory_order_relaxed)};
}

HeapSnapshot heap_delta(const HeapSnapshot& from) {
  const HeapSnapshot now = heap_now();
  return {now.allocs - from.allocs, now.bytes - from.bytes};
}

void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(static_cast<long long>(n),
                         std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(static_cast<long long>(n),
                         std::memory_order_relaxed);
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

namespace {

using cham::Tensor;

// ---------------------------------------------------------------------------
// Section 1: GEMM kernels.

enum class Kernel { kGemm, kGemmAtB, kGemmABt };

struct ShapeCase {
  const char* name;
  Kernel kernel;
  int64_t m, n, k;
  bool served = false;  // a served-step row, outside the speedup gate
};

// The head shapes ThreadPool.KernelsBitIdenticalAcrossThreadCounts checks
// for bit-identity: the trainable head works on 256-channel 2x2
// latents, so the pointwise conv is a (256 x 256) @ (256 x 4) gemm per
// sample; batching and the eval chunk widen N; backward runs A^T B / A B^T.
constexpr ShapeCase kCases[] = {
    {"head_pointwise_1x", Kernel::kGemm, 256, 4, 256},
    {"head_pointwise_b32", Kernel::kGemm, 256, 128, 256},
    {"head_eval_chunk", Kernel::kGemm, 256, 1024, 256},
    {"head_backward_dcol", Kernel::kGemmAtB, 256, 128, 256},
    {"head_backward_dw", Kernel::kGemmABt, 256, 256, 128},
    // The served head's 30-row train step (bench_observe's served block):
    // the three pointwise convs' forward (out_c x rows*pixels x in_c) and
    // weight gradient (out_c x in_c x rows*pixels).
    {"served_pw23_fwd", Kernel::kGemm, 256, 120, 256, true},
    {"served_pw23_dw", Kernel::kGemmABt, 256, 256, 120, true},
    {"served_pw25_fwd", Kernel::kGemm, 512, 30, 256, true},
    {"served_pw25_dw", Kernel::kGemmABt, 512, 256, 30, true},
    {"served_pw27_fwd", Kernel::kGemm, 512, 30, 512, true},
    {"served_pw27_dw", Kernel::kGemmABt, 512, 512, 30, true},
    // A single-key predict through the same layers (n = pixels per key).
    {"served_pw23_predict", Kernel::kGemm, 256, 4, 256, true},
    {"served_pw25_predict", Kernel::kGemm, 512, 1, 256, true},
    {"served_pw27_predict", Kernel::kGemm, 512, 1, 512, true},
};

constexpr int kThreadCounts[] = {1, 2, 4};

void run_kernel(const ShapeCase& sc, const float* a, const float* b, float* c,
                bool reference) {
  switch (sc.kernel) {
    case Kernel::kGemm:
      (reference ? cham::ref::gemm : cham::gemm)(sc.m, sc.n, sc.k, 1.0f, a, b,
                                                 0.0f, c);
      break;
    case Kernel::kGemmAtB:
      (reference ? cham::ref::gemm_at_b : cham::gemm_at_b)(
          sc.m, sc.n, sc.k, 1.0f, a, b, 0.0f, c);
      break;
    case Kernel::kGemmABt:
      (reference ? cham::ref::gemm_a_bt : cham::gemm_a_bt)(
          sc.m, sc.n, sc.k, 1.0f, a, b, 0.0f, c);
      break;
  }
}

template <typename Fn>
double best_of_ms(int reps, Fn&& fn) {
  fn();  // warmup (also spawns pool workers so they are not timed)
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

double gflops(int64_t m, int64_t n, int64_t k, double ms) {
  return ms > 0 ? 2.0 * static_cast<double>(m * n * k) / (ms * 1e6) : 0.0;
}

struct GemmResult {
  const ShapeCase* sc = nullptr;
  double packed_ms = 0, ref_ms = 0;
  double threads_ms[3] = {0, 0, 0};
  double speedup() const { return packed_ms > 0 ? ref_ms / packed_ms : 0; }
};

GemmResult bench_gemm_case(const ShapeCase& sc, int reps) {
  cham::Rng rng(0xC0FFEEull +
                static_cast<uint64_t>(sc.m * 31 + sc.n * 7 + sc.k));
  Tensor a({sc.m, sc.k}), b({sc.k, sc.n}), c({sc.m, sc.n});
  if (sc.kernel == Kernel::kGemmAtB) a = Tensor({sc.k, sc.m});
  if (sc.kernel == Kernel::kGemmABt) b = Tensor({sc.n, sc.k});
  cham::ops::fill_normal(a, rng, 0.0f, 1.0f);
  cham::ops::fill_normal(b, rng, 0.0f, 1.0f);

  GemmResult res;
  res.sc = &sc;
  cham::set_num_threads(1);
  res.packed_ms = best_of_ms(
      reps, [&] { run_kernel(sc, a.data(), b.data(), c.data(), false); });
  // The scalar baseline is slow on the big shapes; fewer reps suffice for a
  // stable best-of.
  res.ref_ms = best_of_ms(std::max(3, reps / 4), [&] {
    run_kernel(sc, a.data(), b.data(), c.data(), true);
  });
  for (size_t ti = 0; ti < 3; ++ti) {
    cham::set_num_threads(kThreadCounts[ti]);
    res.threads_ms[ti] = best_of_ms(
        reps, [&] { run_kernel(sc, a.data(), b.data(), c.data(), false); });
  }
  cham::set_num_threads(1);
  return res;
}

// ---------------------------------------------------------------------------
// Section 2: 1x1 pointwise conv — fast path vs the im2col lowering.

struct ConvResult {
  int64_t batch = 32, channels = 256, hw = 2;
  double fast_ms = 0, im2col_ms = 0;
};

ConvResult bench_conv_pointwise(int reps) {
  ConvResult res;
  cham::Rng rng(0x9D2Cull);
  cham::nn::Conv2d conv(res.channels, res.channels, res.hw, res.hw,
                        /*kernel=*/1, /*stride=*/1, /*pad=*/0, /*bias=*/false,
                        rng);
  Tensor x({res.batch, res.channels, res.hw, res.hw});
  cham::ops::fill_normal(x, rng, 0.0f, 1.0f);
  Tensor w({res.channels, res.channels});
  cham::ops::fill_normal(w, rng, 0.0f, 0.1f);

  cham::set_num_threads(1);
  res.fast_ms =
      best_of_ms(reps, [&] { (void)conv.forward(x, /*train=*/false); });

  // The lowering the fast path replaced: per-sample im2col into arena
  // scratch, then the same gemm. For a 1x1 stride-1 kernel the column
  // matrix is a copy of the input plane — pure overhead.
  cham::ConvGeometry g;
  g.in_c = res.channels;
  g.in_h = res.hw;
  g.in_w = res.hw;
  g.kernel = 1;
  g.stride = 1;
  g.pad = 0;
  const int64_t opix = g.col_cols();
  res.im2col_ms = best_of_ms(reps, [&] {
    Tensor out({res.batch, res.channels, res.hw, res.hw});
    cham::ws::ArenaScope scratch;
    float* col =
        scratch.floats(static_cast<size_t>(g.col_rows() * g.col_cols()));
    for (int64_t n = 0; n < res.batch; ++n) {
      cham::im2col(x.data() + n * res.channels * opix, g, col);
      cham::gemm(res.channels, opix, g.col_rows(), 1.0f, w.data(), col, 0.0f,
                 out.data() + n * res.channels * opix);
    }
  });
  return res;
}

// ---------------------------------------------------------------------------
// Section 3: observe() heap traffic before/after warm-up.

struct AllocResult {
  HeapSnapshot first_step;         // cold: pool fills, caches
  long long plain_max_allocs = 0;  // steady off-cycle steps (must be 0)
  long long plain_max_bytes = 0;
  long long plain_steps = 0;
  double lt_step_avg_bytes = 0;  // every-h LT maintenance steps
  long long lt_steps = 0;
  cham::ws::WorkspaceStats ws;  // gauges over the measured window
};

AllocResult bench_observe_alloc() {
  using namespace cham;

  // The tiny environment from the behavior tests: 3x8x8 images, a 1-conv
  // frozen backbone producing 4x4x4 latents, a GAP+Linear head, 6 classes.
  data::DatasetConfig data_cfg = data::core50_config();
  data_cfg.num_classes = 6;
  data_cfg.num_domains = 3;
  data_cfg.image_hw = 8;
  data_cfg.train_instances = 4;

  Rng frng(1);
  nn::Sequential f;
  f.add(std::make_unique<nn::Conv2d>(3, 4, 8, 8, 3, 2, 1, false, frng));
  f.add(std::make_unique<nn::ReLU>());
  data::LatentCache latents(data_cfg, f);

  core::LearnerEnv env;
  env.data_cfg = &data_cfg;
  env.latents = &latents;
  env.latent_shape = Shape{{4, 4, 4}};
  env.f_fwd_macs = f.macs_per_sample();
  env.lr = 0.01f;
  env.head_factory = [] {
    Rng hrng(2);
    auto g = std::make_unique<nn::Sequential>();
    g->add(std::make_unique<nn::GlobalAvgPool>());
    g->add(std::make_unique<nn::Linear>(4, 6, hrng));
    return g;
  };

  core::ChameleonConfig cc;
  cc.lt_capacity = 24;      // fills within the warm-up window
  cc.learning_window = 40;  // several recalibrations during warm-up
  core::ChameleonLearner learner(env, cc, /*seed=*/7);

  // Deterministic stream cycling a fixed 24-key set (6 classes x 4
  // instances) so the latent cache saturates during warm-up.
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

  AllocResult res;
  long long step = 0;

  {
    const cham::data::Batch b = make_batch(step);
    const HeapSnapshot before = heap_now();
    learner.observe(b);
    res.first_step = heap_delta(before);
    ++step;
  }

  // Warm-up: saturates the latent cache, the LT store (and with it the
  // staged-burst capacity) and every scratch vector. Spans several LT cycles
  // and preference recalibrations.
  constexpr long long kWarmup = 120;
  while (step < kWarmup) learner.observe(make_batch(step++));

  ws::reset_stats();
  constexpr long long kMeasure = 40;
  long long lt_bytes = 0;
  for (long long i = 0; i < kMeasure; ++i, ++step) {
    const cham::data::Batch b = make_batch(step);
    const HeapSnapshot before = heap_now();
    learner.observe(b);
    const HeapSnapshot d = heap_delta(before);
    // observe() numbers steps from 1; LT maintenance runs when that count
    // hits a multiple of h.
    const bool lt_cycle = ((step + 1) % cc.lt_period_h) == 0;
    if (lt_cycle) {
      ++res.lt_steps;
      lt_bytes += d.bytes;
    } else {
      ++res.plain_steps;
      res.plain_max_allocs = std::max(res.plain_max_allocs, d.allocs);
      res.plain_max_bytes = std::max(res.plain_max_bytes, d.bytes);
    }
  }
  if (res.lt_steps > 0) {
    res.lt_step_avg_bytes =
        static_cast<double>(lt_bytes) / static_cast<double>(res.lt_steps);
  }
  res.ws = ws::stats();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 20;
  std::string out_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--reps N] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  std::printf("bench_kernels: simd=%s, %u hardware threads, %d reps\n\n",
              cham::gemm_simd_variant(), std::thread::hardware_concurrency(),
              reps);

  std::printf("%-22s %12s %12s %8s %10s %10s\n", "gemm shape", "packed GF/s",
              "ref GF/s", "speedup", "t=2 ms", "t=4 ms");
  GemmResult gemm_results[std::size(kCases)];
  double gate_min_speedup = 1e30;
  for (size_t i = 0; i < std::size(kCases); ++i) {
    gemm_results[i] = bench_gemm_case(kCases[i], reps);
    const GemmResult& r = gemm_results[i];
    std::printf("%-22s %12.2f %12.2f %7.2fx %10.4f %10.4f\n", r.sc->name,
                gflops(r.sc->m, r.sc->n, r.sc->k, r.packed_ms),
                gflops(r.sc->m, r.sc->n, r.sc->k, r.ref_ms), r.speedup(),
                r.threads_ms[1], r.threads_ms[2]);
    // The acceptance gate covers the forward head shapes (m=256, k=256).
    if (r.sc->kernel == Kernel::kGemm && !r.sc->served) {
      gate_min_speedup = std::min(gate_min_speedup, r.speedup());
    }
  }

  const ConvResult conv = bench_conv_pointwise(reps);
  std::printf(
      "\n1x1 conv (b=%lld, %lldch, %lldx%lld): fast %0.4f ms, im2col %0.4f "
      "ms\n",
      static_cast<long long>(conv.batch),
      static_cast<long long>(conv.channels), static_cast<long long>(conv.hw),
      static_cast<long long>(conv.hw), conv.fast_ms, conv.im2col_ms);

  const AllocResult alloc = bench_observe_alloc();
  std::printf(
      "\nobserve() heap traffic: first step %lld allocs / %lld bytes;\n"
      "  steady off-cycle max %lld allocs / %lld bytes over %lld steps;\n"
      "  LT-cycle avg %.0f bytes over %lld steps\n"
      "  workspace: pool refills %lld, pool high water %lld B, arena high "
      "water %lld B\n",
      alloc.first_step.allocs, alloc.first_step.bytes, alloc.plain_max_allocs,
      alloc.plain_max_bytes, alloc.plain_steps, alloc.lt_step_avg_bytes,
      alloc.lt_steps, static_cast<long long>(alloc.ws.pool_heap_allocs),
      static_cast<long long>(alloc.ws.pool_high_water_bytes),
      static_cast<long long>(alloc.ws.arena_high_water_bytes));

  const bool gate_2x = gate_min_speedup >= 2.0;
  const bool gate_zero_alloc = alloc.plain_max_allocs == 0;
  std::printf(
      "\ngate: head gemm speedup %.2fx (>=2x %s), steady-state allocs %s\n",
      gate_min_speedup, gate_2x ? "PASS" : "FAIL",
      gate_zero_alloc ? "zero PASS" : "nonzero FAIL");

  std::FILE* json = std::fopen(out_path.c_str(), "w");
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"bench_kernels\",\n  \"simd\": \"%s\",\n"
               "  \"hardware_concurrency\": %u,\n  \"reps\": %d,\n"
               "  \"gemm\": [\n",
               cham::gemm_simd_variant(),
               std::thread::hardware_concurrency(), reps);
  for (size_t i = 0; i < std::size(kCases); ++i) {
    const GemmResult& r = gemm_results[i];
    std::fprintf(
        json,
        "%s    {\"shape\": \"%s\", \"m\": %lld, \"n\": %lld, \"k\": %lld,\n"
        "     \"packed_ms\": %.5f, \"packed_gflops\": %.3f,\n"
        "     \"ref_ms\": %.5f, \"ref_gflops\": %.3f, \"speedup_vs_ref\": "
        "%.3f,\n     \"threads_ms\": {\"1\": %.5f, \"2\": %.5f, \"4\": "
        "%.5f}}",
        i == 0 ? "" : ",\n", r.sc->name, static_cast<long long>(r.sc->m),
        static_cast<long long>(r.sc->n), static_cast<long long>(r.sc->k),
        r.packed_ms, gflops(r.sc->m, r.sc->n, r.sc->k, r.packed_ms), r.ref_ms,
        gflops(r.sc->m, r.sc->n, r.sc->k, r.ref_ms), r.speedup(),
        r.threads_ms[0], r.threads_ms[1], r.threads_ms[2]);
  }
  std::fprintf(
      json,
      "\n  ],\n  \"conv_pointwise\": {\"batch\": %lld, \"channels\": %lld, "
      "\"hw\": %lld,\n    \"fastpath_ms\": %.5f, \"im2col_ms\": %.5f},\n",
      static_cast<long long>(conv.batch),
      static_cast<long long>(conv.channels), static_cast<long long>(conv.hw),
      conv.fast_ms, conv.im2col_ms);
  std::fprintf(
      json,
      "  \"alloc\": {\n"
      "    \"first_step_heap_allocs\": %lld, \"first_step_heap_bytes\": "
      "%lld,\n"
      "    \"steady_plain_step_max_allocs\": %lld, "
      "\"steady_plain_step_max_bytes\": %lld,\n"
      "    \"steady_plain_steps\": %lld,\n"
      "    \"lt_cycle_step_avg_bytes\": %.1f, \"lt_cycle_steps\": %lld,\n"
      "    \"ws_pool_heap_allocs\": %lld, \"ws_pool_high_water_bytes\": "
      "%lld,\n"
      "    \"ws_arena_high_water_bytes\": %lld\n  },\n",
      alloc.first_step.allocs, alloc.first_step.bytes, alloc.plain_max_allocs,
      alloc.plain_max_bytes, alloc.plain_steps, alloc.lt_step_avg_bytes,
      alloc.lt_steps, static_cast<long long>(alloc.ws.pool_heap_allocs),
      static_cast<long long>(alloc.ws.pool_high_water_bytes),
      static_cast<long long>(alloc.ws.arena_high_water_bytes));
  std::fprintf(json,
               "  \"gate_head_gemm_min_speedup\": %.3f,\n"
               "  \"gate_speedup_2x\": %s,\n"
               "  \"gate_steady_state_zero_alloc\": %s\n}\n",
               gate_min_speedup, gate_2x ? "true" : "false",
               gate_zero_alloc ? "true" : "false");
  std::fclose(json);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
