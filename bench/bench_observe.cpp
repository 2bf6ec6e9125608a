// Observe-path report for the zero-copy replay pipeline (BENCH_observe.json).
//
// Measures the ChameleonLearner::observe() hot loop after the gather-fused
// GEMM packing rework:
//
//   latency   p50 / p99 of observe() wall time in the steady state (latent
//             cache warm, ST/LT full).
//
//   alloc     Heap traffic via a counting global operator new, split into
//             off-cycle steps (gate: ZERO allocations — the gather path
//             packs panels straight from cache/slab/LT rows, so nothing is
//             stacked, staged or copied on the steady path) and the every-h
//             LT maintenance steps (bounded, reported separately).
//
//   macs      The backward MAC model before/after first-layer dInput
//             elision: the old ledger charged a blanket 2x forward; the
//             head's first trainable layer no longer produces dX, so the
//             exact model must come in strictly below 2x. Cross-checked
//             against the live ledger (stats().g_bwd_macs delta per step).
//
//   served    The served head's train step (MobileNetV1 at 32x32, width
//             0.5, split after conv layer 21: 256x2x2 latents, 6 classes,
//             30-row steps, frozen BN, first-layer dInput elided, one
//             tensor thread like the serving runtime): per-layer forward
//             and backward self time with GMAC/s, plus the loss. The step
//             is HeadLearner::train_step's, so each layer's backward row
//             includes its SGD update, applied as soon as that backward
//             returns. Gate: the rows cover >= 95% of the measured step.
//
//   served_predict  The same head's eval forward_gather at 1 and at 4 keys
//             (a wire predict's head compute; one tensor thread): per-layer
//             self time with GMAC/s. `calls` counts the (whole, layered)
//             call pairs kept after dropping stalled ones. Gate: the rows
//             cover >= 95% of the measured call.
//
//   served_resident  Where a resident session's memory goes: 13
//             served-config ChameleonLearners (the served head over
//             latents of its own frozen backbone, lt_capacity 18), 20
//             observes each at one tensor thread, all kept alive.
//             Workspace-pool capacity per additional resident learner,
//             split into head state (weights, BatchNorm running statistics
//             and inverse std), replay state (ST and LT slabs) and the
//             remainder. Gate: the remainder is no larger than the pool's
//             size-class rounding of the first two, i.e. a learner at rest
//             holds no state of its last train step.
//
//   served_blob  What a served learner's CHS2 v7 session blob costs as it
//             trains: after 1, 10, 100 and 1000 observes (one learner, one
//             tensor thread, the same environment with the head's initial
//             weights as the template), the blob's bytes, the bytes it
//             would have with the head stored raw, the head section's
//             encoded and raw bytes, and the median save_state (into an
//             empty buffer, as the serving snapshot does; save_state
//             reserves state_bytes_bound() itself) and load_state times
//             over 21 round trips.
//             Gate: loading each blob and saving it again reproduces its
//             bytes.
//
//   ./build/bench/bench_observe [--steps N] [--out PATH]
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
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/chameleon.h"
#include "core/checkpoint.h"
#include "data/latent_cache.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/mobilenet.h"
#include "nn/model_io.h"
#include "nn/sequential.h"
#include "nn/sgd.h"
#include "tensor/byte_mask.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "tensor/thread_pool.h"
#include "tensor/workspace.h"

// ---------------------------------------------------------------------------
// Counting global new/delete (same idiom as bench_kernels): every heap
// allocation in the process, including aligned workspace refills, bumps the
// counters.
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

using namespace cham;

// Tiny deterministic environment (behavior-test scale: 3x8x8 images, one
// frozen conv producing 4x4x4 latents) with a head whose FIRST layer is a
// real conv — the dInput elision has to save a measurable MAC share, which
// a GAP-first head would hide.
struct BenchEnv {
  data::DatasetConfig data_cfg;
  std::unique_ptr<nn::Sequential> f;
  std::unique_ptr<data::LatentCache> latents;
  core::LearnerEnv env;

  BenchEnv() {
    data_cfg = data::core50_config();
    data_cfg.num_classes = 6;
    data_cfg.num_domains = 3;
    data_cfg.image_hw = 8;
    data_cfg.train_instances = 4;

    Rng frng(1);
    f = std::make_unique<nn::Sequential>();
    f->add(std::make_unique<nn::Conv2d>(3, 4, 8, 8, 3, 2, 1, false, frng));
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
      g->add(std::make_unique<nn::Conv2d>(4, 8, 4, 4, 3, 1, 1, false, hrng));
      g->add(std::make_unique<nn::ReLU>());
      g->add(std::make_unique<nn::GlobalAvgPool>());
      g->add(std::make_unique<nn::Linear>(8, 6, hrng));
      return g;
    };
  }

  data::Batch batch(long long s) const {
    data::Batch b;
    b.domain = 0;
    for (int i = 0; i < 4; ++i) {
      const long long j = s + i;
      b.keys.push_back({static_cast<int32_t>(j % 6), 0,
                        static_cast<int32_t>(j % 4), false});
      b.labels.push_back(j % 6);
    }
    return b;
  }
};

struct Report {
  double p50_ms = 0, p99_ms = 0;
  long long plain_max_allocs = 0;
  long long plain_max_bytes = 0;
  long long plain_steps = 0;
  double lt_step_avg_bytes = 0;
  long long lt_steps = 0;
  double fwd_macs = 0;                // head forward MACs per sample
  double bwd_macs_before = 0;         // old blanket 2x model
  double bwd_macs_after = 0;          // exact post-elision model
  bool ledger_consistent = false;     // ledger delta == model * samples
};

Report run(long long measure_steps) {
  BenchEnv be;
  core::ChameleonConfig cc;
  cc.lt_capacity = 24;
  cc.learning_window = 40;
  core::ChameleonLearner learner(be.env, cc, /*seed=*/7);

  Report rep;
  rep.fwd_macs = static_cast<double>(learner.head().macs_per_sample());
  rep.bwd_macs_before = 2.0 * rep.fwd_macs;
  rep.bwd_macs_after = static_cast<double>(learner.g_bwd_macs());

  // Warm-up: saturate the latent cache, ST slab, LT store, staged-burst
  // capacity and all row-pointer scratch; spans several LT cycles and
  // preference recalibrations.
  constexpr long long kWarmup = 120;
  long long step = 0;
  while (step < kWarmup) learner.observe(be.batch(step++));
  // Warm the chunked predict path's scratch too (it shares the gate).
  std::vector<data::ImageKey> eval_keys;
  for (int i = 0; i < 24; ++i) {
    eval_keys.push_back({static_cast<int32_t>(i % 6), 0,
                         static_cast<int32_t>(i % 4), false});
  }
  (void)learner.predict(eval_keys);

  std::vector<double> lat_ms;
  lat_ms.reserve(static_cast<size_t>(measure_steps));
  long long lt_bytes = 0;
  const double ledger_bwd_before = learner.stats().g_bwd_macs;
  long long train_samples = 0;

  for (long long i = 0; i < measure_steps; ++i, ++step) {
    const data::Batch b = be.batch(step);
    const long long st_rows = learner.short_term().size();  // full ST replays
    const HeapSnapshot before = heap_now();
    const auto t0 = std::chrono::steady_clock::now();
    learner.observe(b);
    const auto t1 = std::chrono::steady_clock::now();
    const HeapSnapshot d = heap_delta(before);
    lat_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    // The gather batch = incoming + ST replay + (on cycle steps) the staged
    // LT burst; reconstruct the sample count for the ledger cross-check.
    train_samples += static_cast<long long>(b.keys.size()) + st_rows;
    const bool lt_cycle = ((step + 1) % cc.lt_period_h) == 0;
    if (lt_cycle) {
      ++rep.lt_steps;
      lt_bytes += d.bytes;
    } else {
      ++rep.plain_steps;
      rep.plain_max_allocs = std::max(rep.plain_max_allocs, d.allocs);
      rep.plain_max_bytes = std::max(rep.plain_max_bytes, d.bytes);
    }
    // LT rows consumed from the staged burst also train each step; their
    // count comes out of the ledger cross-check below rather than
    // re-deriving the staging schedule here.
    (void)learner.predict(eval_keys);  // keep the predict path in the window
  }

  if (rep.lt_steps > 0) {
    rep.lt_step_avg_bytes =
        static_cast<double>(lt_bytes) / static_cast<double>(rep.lt_steps);
  }

  // Ledger cross-check: every trained sample must have been charged the
  // exact post-elision backward model. The LT replay rows consumed from the
  // staged burst are included in the ledger; derive their count from the
  // charged total instead of re-deriving the schedule.
  const double ledger_delta = learner.stats().g_bwd_macs - ledger_bwd_before;
  const double charged_samples = ledger_delta / rep.bwd_macs_after;
  const double frac =
      charged_samples - static_cast<double>(static_cast<long long>(
                            charged_samples + 0.5));
  // Integral sample count and at least the directly-observed samples.
  rep.ledger_consistent =
      std::abs(frac) < 1e-6 &&
      charged_samples >= static_cast<double>(train_samples) - 0.5;

  std::sort(lat_ms.begin(), lat_ms.end());
  auto pct = [&](double q) {
    if (lat_ms.empty()) return 0.0;
    const size_t idx = std::min(
        lat_ms.size() - 1,
        static_cast<size_t>(q * static_cast<double>(lat_ms.size() - 1)));
    return lat_ms[idx];
  };
  rep.p50_ms = pct(0.50);
  rep.p99_ms = pct(0.99);
  return rep;
}

// ---------------------------------------------------------------------------
// Served head: one 30-row train step, layer by layer.

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// One timed row: a head layer (forward + backward self time, MACs for the
// step's rows; a train step's backward includes the layer's update) or the
// loss.
struct StageRow {
  std::string name;
  double fwd_ms = 0, bwd_ms = 0;  // per-step means (sums while measuring)
  double macs = 0;                // per step, forward + backward
};

struct ServedReport {
  int64_t rows = 0, steps = 0;
  double step_ms_mean = 0, step_ms_p50 = 0;
  double rows_ms_sum = 0;  // per-step mean of all rows' self times
  double coverage = 0;     // rows_ms_sum / step_ms_mean
  double head_gmacs_per_s = 0;
  std::vector<StageRow> stages;
};

// The served head geometry (MobileNetV1 at 32x32, width 0.5, split at conv
// layer 21, 6 classes) over `rows` post-ReLU6-like latents. Weights do not
// change a step's cost, so the head is built directly, not pretrained.
struct ServedHead {
  static constexpr int64_t kClasses = 6;
  nn::SplitModel split;
  Tensor latents;
  std::vector<const float*> row_ptrs;

  explicit ServedHead(int64_t rows) {
    nn::MobileNetConfig mc;  // 32x32, width 0.5, latent layer 21
    mc.num_classes = kClasses;
    Rng rng(21);
    split = nn::split_at_conv_layer(nn::build_mobilenet_v1(mc, rng), 21);
    latents = Tensor({rows, split.latent_shape[0], split.latent_shape[1],
                      split.latent_shape[2]});
    for (int64_t i = 0; i < latents.numel(); ++i) {
      latents[i] = std::max(0.0f, rng.normal_f(0.0f, 1.0f));
    }
    for (int64_t r = 0; r < rows; ++r) {
      row_ptrs.push_back(latents.data() + r * split.latent_dim);
    }
  }
  nn::GatherBatch batch() const {
    return {row_ptrs.data(), static_cast<int64_t>(row_ptrs.size()),
            split.latent_shape};
  }
};

// One row per head layer, MACs for `rows` samples (plus the backward's when
// the report times a train step).
void add_layer_rows(nn::Sequential& g, int64_t rows, bool backward,
                    ServedReport& rep) {
  for (int64_t i = 0; i < g.size(); ++i) {
    nn::Layer& l = g.layer(i);
    const int64_t macs =
        l.macs_per_sample() + (backward ? l.backward_macs_per_sample() : 0);
    rep.stages.push_back({std::to_string(i) + ":" + l.name(), 0, 0,
                          static_cast<double>(macs * rows)});
  }
}

// Per-step means, the rows' sum against the whole call, and the head rate.
void finish_report(std::vector<double>& call_ms, ServedReport& rep) {
  const auto calls = static_cast<double>(call_ms.size());
  double total_macs = 0;
  for (auto& st : rep.stages) {
    st.fwd_ms /= calls;
    st.bwd_ms /= calls;
    rep.rows_ms_sum += st.fwd_ms + st.bwd_ms;
    total_macs += st.macs;
  }
  for (double v : call_ms) rep.step_ms_mean += v;
  rep.step_ms_mean /= calls;
  std::sort(call_ms.begin(), call_ms.end());
  rep.step_ms_p50 = call_ms[call_ms.size() / 2];
  rep.coverage = rep.rows_ms_sum / rep.step_ms_mean;
  rep.head_gmacs_per_s = total_macs / (rep.step_ms_mean * 1e6);
}

ServedReport run_served(int64_t steps) {
  constexpr int64_t kRows = 30;  // 10 incoming + 10 ST + 10 staged LT rows
  ServedHead head(kRows);
  nn::Sequential& g = *head.split.g;
  nn::freeze_batchnorm_stats(g);
  g.set_needs_input_grad(false);
  nn::Sgd opt(g.params(), 0.02f);
  const std::vector<size_t> layer_params = g.param_offsets();
  const auto apply = [&](int64_t i) {
    opt.step(layer_params[static_cast<size_t>(i)],
             layer_params[static_cast<size_t>(i) + 1]);
  };
  const nn::GatherBatch gb = head.batch();
  std::vector<int64_t> labels;
  for (int64_t r = 0; r < kRows; ++r) {
    labels.push_back(r % ServedHead::kClasses);
  }

  const int64_t nl = g.size();
  ServedReport rep;
  rep.rows = kRows;
  rep.steps = steps;
  add_layer_rows(g, kRows, /*backward=*/true, rep);
  rep.stages.push_back({"softmax_cross_entropy", 0, 0, 0});
  StageRow& loss_row = rep.stages[static_cast<size_t>(nl)];

  // The step HeadLearner::train_step runs, through the Sequential: each
  // layer's update right after its own backward.
  const auto whole_step = [&] {
    const Tensor logits = g.forward_gather(gb, /*train=*/true);
    const nn::LossResult loss = nn::softmax_cross_entropy(logits, labels);
    (void)g.backward(loss.grad, apply);
  };
  // The same calls in the same order, each under its own timer.
  const auto layered_step = [&] {
    auto t = Clock::now();
    Tensor cur = g.layer(0).forward_gather(gb, /*train=*/true);
    rep.stages[0].fwd_ms += ms_since(t);
    for (int64_t i = 1; i < nl; ++i) {
      t = Clock::now();
      cur = g.layer(i).forward(cur, /*train=*/true);
      rep.stages[static_cast<size_t>(i)].fwd_ms += ms_since(t);
    }
    t = Clock::now();
    nn::LossResult loss = nn::softmax_cross_entropy(cur, labels);
    loss_row.fwd_ms += ms_since(t);
    Tensor grad = std::move(loss.grad);
    for (int64_t i = nl - 1; i >= 0; --i) {
      t = Clock::now();
      grad = g.layer(i).backward(grad);
      apply(i);
      rep.stages[static_cast<size_t>(i)].bwd_ms += ms_since(t);
    }
  };

  const int saved_threads = num_threads();
  set_num_threads(1);
  for (int i = 0; i < 20; ++i) whole_step();  // warm the pool and arenas
  for (auto& st : rep.stages) st.fwd_ms = st.bwd_ms = 0;
  // Whole and layered steps alternate, so drift hits both alike.
  std::vector<double> step_ms;
  for (int64_t i = 0; i < steps; ++i) {
    const auto t0 = Clock::now();
    whole_step();
    step_ms.push_back(ms_since(t0));
    layered_step();
  }
  set_num_threads(saved_threads);
  finish_report(step_ms, rep);
  return rep;
}

// The median of `v` (a copy: the caller's order stays).
double median(std::vector<double> v) {
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

// The served head's predict: the eval forward_gather of `keys` latents, the
// call a wire predict runs, layer by layer at one tensor thread. At one key
// the pointwise layers are GEMMs of n = 4, 1 and 1 columns. A call takes
// about 0.1 ms, so one scheduler stall would move a mean by percents: a
// (whole, layered) pair where either side took over twice its median is
// dropped from both sides of the coverage ratio.
ServedReport run_served_predict(int64_t keys, int64_t calls) {
  ServedHead head(keys);
  nn::Sequential& g = *head.split.g;
  const nn::GatherBatch gb = head.batch();
  const int64_t nl = g.size();
  ServedReport rep;
  rep.rows = keys;
  add_layer_rows(g, keys, /*backward=*/false, rep);
  std::vector<double> layer_ms(static_cast<size_t>(calls * nl));
  const auto layered_call = [&](double* row) {
    auto t = Clock::now();
    Tensor cur = g.layer(0).forward_gather(gb, /*train=*/false);
    row[0] = ms_since(t);
    for (int64_t i = 1; i < nl; ++i) {
      t = Clock::now();
      cur = g.layer(i).forward(cur, /*train=*/false);
      row[i] = ms_since(t);
    }
  };

  const int saved_threads = num_threads();
  set_num_threads(1);
  for (int i = 0; i < 50; ++i) (void)g.forward_gather(gb, /*train=*/false);
  std::vector<double> whole_ms, layered_ms;
  for (int64_t c = 0; c < calls; ++c) {
    const auto t0 = Clock::now();
    (void)g.forward_gather(gb, /*train=*/false);
    whole_ms.push_back(ms_since(t0));
    double* row = layer_ms.data() + c * nl;
    layered_call(row);
    layered_ms.push_back(std::accumulate(row, row + nl, 0.0));
  }
  set_num_threads(saved_threads);

  const double whole_cap = 2 * median(whole_ms);
  const double layered_cap = 2 * median(layered_ms);
  std::vector<double> call_ms;
  for (int64_t c = 0; c < calls; ++c) {
    const auto ci = static_cast<size_t>(c);
    if (whole_ms[ci] > whole_cap || layered_ms[ci] > layered_cap) continue;
    call_ms.push_back(whole_ms[ci]);
    for (int64_t i = 0; i < nl; ++i) {
      rep.stages[static_cast<size_t>(i)].fwd_ms += layer_ms[ci * nl + i];
    }
  }
  rep.steps = static_cast<int64_t>(call_ms.size());
  finish_report(call_ms, rep);
  return rep;
}

// ---------------------------------------------------------------------------
// Served sessions at rest: what each additional resident learner holds.

// Bytes of a run of pool blocks, raw and at the pool's size classes.
struct PoolBytes {
  int64_t raw = 0, pooled = 0;
  void add(int64_t bytes) {
    if (bytes <= 0) return;
    raw += bytes;
    pooled += static_cast<int64_t>(
        ws::pool_block_bytes(static_cast<size_t>(bytes)));
  }
  void add_floats(int64_t n) { add(n * static_cast<int64_t>(sizeof(float))); }
};

// The head's pool blocks at rest: its parameters, and each BatchNorm's
// running mean, running variance and inverse std (one channel-sized tensor
// each).
void add_head_state(nn::Sequential& g, PoolBytes& b) {
  for (nn::Param* p : g.params()) b.add_floats(p->numel());
  for (int64_t i = 0; i < g.size(); ++i) {
    const auto* bn = dynamic_cast<const nn::BatchNorm2d*>(&g.layer(i));
    if (bn == nullptr) continue;
    for (int k = 0; k < 3; ++k) b.add_floats(bn->running_mean().numel());
  }
}

// The ST slab and every configured LT class slab.
void add_replay_state(const core::ChameleonLearner& l, int64_t classes,
                      PoolBytes& b) {
  const auto add_slab = [&](const replay::SlotStore& s) {
    if (s.configured()) b.add_floats(s.capacity() * s.row_numel());
  };
  add_slab(l.short_term().store());
  for (int64_t c = 0; c < classes; ++c) add_slab(l.long_term().class_store(c));
}

struct ResidentReport {
  int64_t learners = 0, observes = 0;
  // Per additional resident learner (learners 2..N against learner 1).
  double pool_bytes = 0;
  double head_bytes = 0, replay_bytes = 0;  // raw
  double rounding_bytes = 0;  // size-class rounding of head + replay
  double remainder_bytes = 0;  // pool_bytes - head_bytes - replay_bytes
  bool holds_no_step_state = false;  // remainder <= rounding
};

// The served-config learner environment of the two blocks below: the
// served head over latents of its own frozen backbone, 6 classes, with the
// head's initial weights as the shared template blobs are encoded against.
struct ServedSessionEnv {
  static constexpr int64_t kClasses = 6;
  data::DatasetConfig data_cfg = data::core50_config();
  nn::MobileNetConfig mc;
  nn::SplitModel split;
  std::unique_ptr<data::LatentCache> latents;
  std::unique_ptr<nn::Sequential> head_template;
  core::LearnerEnv env;
  core::ChameleonConfig cc;

  ServedSessionEnv() {
    data_cfg.num_classes = kClasses;
    data_cfg.num_domains = 2;
    data_cfg.train_instances = 5;
    mc.num_classes = kClasses;
    Rng rng(29);
    split = nn::split_at_conv_layer(nn::build_mobilenet_v1(mc, rng), 21);
    nn::freeze_batchnorm_stats(*split.f);
    latents = std::make_unique<data::LatentCache>(data_cfg, *split.f);
    env.data_cfg = &data_cfg;
    env.latents = latents.get();
    env.latent_shape = split.latent_shape;
    env.f_fwd_macs = split.f->macs_per_sample();
    env.lr = 0.02f;
    env.head_factory = [mc = mc] {
      Rng hrng(27);
      auto g = std::move(
          nn::split_at_conv_layer(nn::build_mobilenet_v1(mc, hrng), 21).g);
      nn::freeze_batchnorm_stats(*g);
      return g;
    };
    head_template = env.head_factory();
    core::ByteBuf raw;
    nn::save_params(*head_template, raw);
    env.head_template = head_template.get();
    env.template_hash = core::blob_hash(raw.data(), raw.size());
    cc.lt_capacity = 18;
    // The latent cache belongs to the environment: fill it first.
    std::vector<data::ImageKey> keys;
    for (int64_t s = 0; s < 3; ++s) {
      for (const auto& k : batch(s).keys) keys.push_back(k);
    }
    latents->warm(keys);
  }

  // 10-key batches over 30 distinct keys (6 classes x 5 instances).
  static data::Batch batch(int64_t s) {
    data::Batch b;
    b.domain = 0;
    for (int64_t i = 0; i < 10; ++i) {
      const int64_t j = s * 10 + i;
      b.keys.push_back({static_cast<int32_t>(j % kClasses), 0,
                        static_cast<int32_t>(j % 5), false});
      b.labels.push_back(j % kClasses);
    }
    return b;
  }
};

ResidentReport run_served_resident(int64_t learners, int64_t observes) {
  const ServedSessionEnv se;
  const core::LearnerEnv& env = se.env;
  const core::ChameleonConfig& cc = se.cc;
  const auto batch = &ServedSessionEnv::batch;
  constexpr int64_t kClasses = ServedSessionEnv::kClasses;

  const int saved_threads = num_threads();
  set_num_threads(1);
  std::vector<std::unique_ptr<core::ChameleonLearner>> resident;
  PoolBytes head, replay;
  int64_t after_first = 0;
  for (int64_t n = 0; n < learners; ++n) {
    // Each learner is built and trained on a fresh thread that then exits.
    // A block parked in a thread's pool cache still counts as in use, and
    // the exit hands the parked blocks back, so the gauge's growth is
    // exactly what the resident learners hold.
    std::thread([&] {
      resident.push_back(std::make_unique<core::ChameleonLearner>(
          env, cc, /*seed=*/static_cast<uint64_t>(n + 1)));
      for (int64_t s = 0; s < observes; ++s) {
        resident.back()->observe(batch(s));
      }
    }).join();
    core::ChameleonLearner& l = *resident.back();
    if (n == 0) {
      after_first = ws::stats().pool_bytes_in_use;
      continue;
    }
    add_head_state(l.head(), head);
    add_replay_state(l, kClasses, replay);
  }
  const int64_t after_all = ws::stats().pool_bytes_in_use;
  set_num_threads(saved_threads);

  ResidentReport rep;
  rep.learners = learners;
  rep.observes = observes;
  const int64_t held = after_all - after_first;
  const int64_t remainder = held - head.raw - replay.raw;
  const int64_t rounding =
      head.pooled - head.raw + replay.pooled - replay.raw;
  const auto extra = static_cast<double>(learners - 1);
  rep.pool_bytes = static_cast<double>(held) / extra;
  rep.head_bytes = static_cast<double>(head.raw) / extra;
  rep.replay_bytes = static_cast<double>(replay.raw) / extra;
  rep.rounding_bytes = static_cast<double>(rounding) / extra;
  rep.remainder_bytes = static_cast<double>(remainder) / extra;
  rep.holds_no_step_state = remainder <= rounding;
  return rep;
}

// ---------------------------------------------------------------------------
// Session blobs: what a served learner's CHS2 blob costs as it trains.

struct BlobRow {
  int64_t observes = 0;
  int64_t blob_bytes = 0;          // the v7 blob, head encoded
  int64_t head_raw_bytes = 0;      // the head section as raw floats
  int64_t head_encoded_bytes = 0;  // the template-relative head section
  int64_t raw_blob_bytes = 0;      // the blob with the head stored raw
  double save_ms = 0, load_ms = 0;  // medians
  bool roundtrip_exact = false;    // load + save reproduces the bytes
};

std::vector<BlobRow> run_served_blob(std::initializer_list<int64_t> marks,
                                     int reps) {
  const ServedSessionEnv se;
  const int saved_threads = num_threads();
  set_num_threads(1);
  core::ChameleonLearner learner(se.env, se.cc, /*seed=*/1);
  core::ChameleonLearner target(se.env, se.cc, /*seed=*/2);
  std::vector<BlobRow> rows;
  int64_t done = 0;
  for (const int64_t mark : marks) {
    for (; done < mark; ++done) learner.observe(ServedSessionEnv::batch(done));
    BlobRow row;
    row.observes = mark;
    std::vector<double> save_ms, load_ms;
    core::ByteBuf blob;
    for (int r = 0; r < reps; ++r) {
      // As the serving runtime's snapshot: into an empty buffer.
      blob = core::ByteBuf();
      const auto t0 = std::chrono::steady_clock::now();
      if (!learner.save_state(blob)) std::abort();
      const auto t1 = std::chrono::steady_clock::now();
      util::Reader in(blob.data(), blob.size());
      if (!target.load_state(in)) std::abort();
      const auto t2 = std::chrono::steady_clock::now();
      save_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      load_ms.push_back(
          std::chrono::duration<double, std::milli>(t2 - t1).count());
    }
    core::ByteBuf again;
    if (!target.save_state(again)) std::abort();
    core::ByteBuf head;
    nn::save_params_relative(learner.head(), se.env.head_template, head);
    core::ByteBuf raw_head;
    nn::save_params(learner.head(), raw_head);
    row.blob_bytes = static_cast<int64_t>(blob.size());
    row.head_encoded_bytes = static_cast<int64_t>(head.size());
    row.head_raw_bytes = static_cast<int64_t>(raw_head.size());
    row.raw_blob_bytes =
        row.blob_bytes - row.head_encoded_bytes + row.head_raw_bytes;
    row.save_ms = median(save_ms);
    row.load_ms = median(load_ms);
    row.roundtrip_exact = again == blob;
    rows.push_back(row);
  }
  set_num_threads(saved_threads);
  return rows;
}

double gmacs_per_s(const StageRow& st) {
  const double ms = st.fwd_ms + st.bwd_ms;
  return ms > 0 ? st.macs / (ms * 1e6) : 0.0;
}

// `unit` names what was timed whole: the train step or the predict call.
void print_report(const ServedReport& rep, const char* unit) {
  std::printf(
      " mean %.3f ms, p50 %.3f ms, %.2f GMAC/s; rows sum %.3f ms (%.1f%% of "
      "the %s)\n",
      rep.step_ms_mean, rep.step_ms_p50, rep.head_gmacs_per_s,
      rep.rows_ms_sum, 100.0 * rep.coverage, unit);
  std::printf("  %-24s %9s %9s %9s %8s\n", "stage", "fwd ms", "bwd ms",
              "MMAC", "GMAC/s");
  for (const StageRow& st : rep.stages) {
    std::printf("  %-24s %9.4f %9.4f %9.3f %8.2f\n", st.name.c_str(),
                st.fwd_ms, st.bwd_ms, st.macs / 1e6, gmacs_per_s(st));
  }
}

// One report as a JSON object; `count_key` names what `steps` counted.
void write_report_json(std::FILE* json, const ServedReport& rep,
                       const char* count_key, const char* indent) {
  std::fprintf(json,
               "{\n%s\"rows\": %lld, \"%s\": %lld, \"threads\": 1,\n"
               "%s\"step_ms_mean\": %.5f, \"step_ms_p50\": %.5f,\n"
               "%s\"rows_ms_sum\": %.5f, \"coverage\": %.4f,\n"
               "%s\"head_gmacs_per_s\": %.3f,\n%s\"stages\": [\n",
               indent, static_cast<long long>(rep.rows), count_key,
               static_cast<long long>(rep.steps), indent, rep.step_ms_mean,
               rep.step_ms_p50, indent, rep.rows_ms_sum, rep.coverage, indent,
               rep.head_gmacs_per_s, indent);
  for (size_t i = 0; i < rep.stages.size(); ++i) {
    const StageRow& st = rep.stages[i];
    std::fprintf(json,
                 "%s  {\"stage\": \"%s\", \"fwd_ms\": %.5f, \"bwd_ms\": "
                 "%.5f, \"macs\": %.0f, \"gmacs_per_s\": %.3f}%s\n",
                 indent, st.name.c_str(), st.fwd_ms, st.bwd_ms, st.macs,
                 gmacs_per_s(st), i + 1 < rep.stages.size() ? "," : "");
  }
  std::fprintf(json, "%s]\n%.*s}", indent,
               static_cast<int>(std::strlen(indent)) - 2, indent);
}

}  // namespace

int main(int argc, char** argv) {
  long long steps = 400;
  std::string out_path = "BENCH_observe.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
      steps = std::max(50LL, static_cast<long long>(std::atol(argv[++i])));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--steps N] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  std::printf("bench_observe: %lld measured steps\n\n", steps);
  const Report r = run(steps);

  const double ratio =
      r.fwd_macs > 0 ? r.bwd_macs_after / r.fwd_macs : 0.0;
  std::printf("observe latency: p50 %.4f ms, p99 %.4f ms\n", r.p50_ms,
              r.p99_ms);
  std::printf(
      "heap: off-cycle max %lld allocs / %lld bytes over %lld steps; "
      "LT-cycle avg %.0f bytes over %lld steps\n",
      r.plain_max_allocs, r.plain_max_bytes, r.plain_steps,
      r.lt_step_avg_bytes, r.lt_steps);
  std::printf(
      "backward MAC model: fwd %.0f, bwd before elision %.0f (2.00x), bwd "
      "after %.0f (%.2fx), ledger %s\n",
      r.fwd_macs, r.bwd_macs_before, r.bwd_macs_after, ratio,
      r.ledger_consistent ? "consistent" : "INCONSISTENT");

  const ServedReport sv = run_served(std::max<long long>(100, steps / 2));
  std::printf("\nserved head step (%lld rows, 1 thread):",
              static_cast<long long>(sv.rows));
  print_report(sv, "step");
  const ServedReport pv[] = {run_served_predict(1, 4 * steps),
                             run_served_predict(4, 4 * steps)};
  for (const ServedReport& p : pv) {
    std::printf("\nserved head predict (%lld keys, eval forward, 1 thread):",
                static_cast<long long>(p.rows));
    print_report(p, "call");
  }

  const ResidentReport rr = run_served_resident(13, 20);
  constexpr double kMiB = 1024.0 * 1024.0;
  std::printf(
      "\nserved sessions at rest (%lld learners, %lld observes each, 1 "
      "thread), pool bytes per additional learner: %.3f MiB = head %.3f + "
      "replay %.3f + remainder %.3f MiB (size-class rounding %.3f MiB)\n",
      static_cast<long long>(rr.learners),
      static_cast<long long>(rr.observes), rr.pool_bytes / kMiB,
      rr.head_bytes / kMiB, rr.replay_bytes / kMiB,
      rr.remainder_bytes / kMiB, rr.rounding_bytes / kMiB);

  const std::vector<BlobRow> br = run_served_blob({1, 10, 100, 1000}, 21);
  std::printf(
      "\nserved session blobs (1 thread; head stored against the template, "
      "%s codec):\n  %8s %10s %10s %7s %9s %9s %6s\n",
      bytemask::simd() ? "vbmi2" : "scalar", "observes", "blob B", "raw B",
      "head %", "save ms", "load ms", "exact");
  bool gate_blob = true;
  for (const BlobRow& b : br) {
    std::printf("  %8lld %10lld %10lld %6.1f%% %9.3f %9.3f %6s\n",
                static_cast<long long>(b.observes),
                static_cast<long long>(b.blob_bytes),
                static_cast<long long>(b.raw_blob_bytes),
                100.0 * static_cast<double>(b.head_encoded_bytes) /
                    static_cast<double>(b.head_raw_bytes),
                b.save_ms, b.load_ms, b.roundtrip_exact ? "yes" : "NO");
    gate_blob = gate_blob && b.roundtrip_exact;
  }

  const bool gate_zero_alloc = r.plain_max_allocs == 0;
  const bool gate_bwd = r.bwd_macs_after < r.bwd_macs_before && ratio < 2.0;
  const bool gate_ledger = r.ledger_consistent;
  const bool gate_served = sv.coverage >= 0.95;
  const bool gate_predict =
      pv[0].coverage >= 0.95 && pv[1].coverage >= 0.95;
  const bool gate_resident = rr.holds_no_step_state;
  std::printf(
      "\ngates: steady zero-alloc %s, bwd < 2x fwd %s, ledger exact %s, "
      "served rows cover the step %s, predict rows cover the call %s, "
      "resident learners hold no step state %s, blob round trip exact %s\n",
      gate_zero_alloc ? "PASS" : "FAIL",
      gate_bwd ? "PASS" : "FAIL", gate_ledger ? "PASS" : "FAIL",
      gate_served ? "PASS" : "FAIL", gate_predict ? "PASS" : "FAIL",
      gate_resident ? "PASS" : "FAIL", gate_blob ? "PASS" : "FAIL");

  std::FILE* json = std::fopen(out_path.c_str(), "w");
  if (!json) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      json,
      "{\n  \"bench\": \"bench_observe\",\n  \"steps\": %lld,\n"
      "  \"observe_p50_ms\": %.5f,\n  \"observe_p99_ms\": %.5f,\n"
      "  \"steady_plain_step_max_allocs\": %lld,\n"
      "  \"steady_plain_step_max_bytes\": %lld,\n"
      "  \"steady_plain_steps\": %lld,\n"
      "  \"lt_cycle_step_avg_bytes\": %.1f,\n  \"lt_cycle_steps\": %lld,\n"
      "  \"head_fwd_macs_per_sample\": %.0f,\n"
      "  \"head_bwd_macs_before_elision\": %.0f,\n"
      "  \"head_bwd_macs_after_elision\": %.0f,\n"
      "  \"bwd_over_fwd_ratio\": %.4f,\n"
      "  \"gate_steady_state_zero_alloc\": %s,\n"
      "  \"gate_bwd_below_2x_fwd\": %s,\n"
      "  \"gate_ledger_matches_model\": %s,\n",
      steps, r.p50_ms, r.p99_ms, r.plain_max_allocs, r.plain_max_bytes,
      r.plain_steps, r.lt_step_avg_bytes, r.lt_steps, r.fwd_macs,
      r.bwd_macs_before, r.bwd_macs_after, ratio,
      gate_zero_alloc ? "true" : "false", gate_bwd ? "true" : "false",
      gate_ledger ? "true" : "false");
  std::fprintf(json, "  \"served\": ");
  write_report_json(json, sv, "steps", "    ");
  std::fprintf(json, ",\n  \"gate_served_rows_cover_step\": %s,\n",
               gate_served ? "true" : "false");
  std::fprintf(json, "  \"served_predict\": [\n");
  for (size_t i = 0; i < std::size(pv); ++i) {
    std::fprintf(json, "    ");
    write_report_json(json, pv[i], "calls", "      ");
    std::fprintf(json, "%s\n", i + 1 < std::size(pv) ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"gate_predict_rows_cover_call\": %s,\n",
               gate_predict ? "true" : "false");
  std::fprintf(
      json,
      "  \"served_resident\": {\n"
      "    \"learners\": %lld, \"observes_each\": %lld, \"threads\": 1,\n"
      "    \"pool_bytes_per_learner\": %.0f,\n"
      "    \"head_bytes\": %.0f, \"replay_bytes\": %.0f,\n"
      "    \"remainder_bytes\": %.0f, \"size_class_rounding_bytes\": %.0f\n"
      "  },\n  \"gate_resident_holds_no_step_state\": %s,\n",
      static_cast<long long>(rr.learners),
      static_cast<long long>(rr.observes), rr.pool_bytes, rr.head_bytes,
      rr.replay_bytes, rr.remainder_bytes, rr.rounding_bytes,
      gate_resident ? "true" : "false");
  std::fprintf(json, "  \"served_blob_codec\": \"%s\",\n",
               bytemask::simd() ? "vbmi2" : "scalar");
  std::fprintf(json, "  \"served_blob\": [\n");
  for (size_t i = 0; i < br.size(); ++i) {
    const BlobRow& b = br[i];
    std::fprintf(
        json,
        "    {\"observes\": %lld, \"blob_bytes\": %lld, "
        "\"raw_blob_bytes\": %lld,\n     \"head_raw_bytes\": %lld, "
        "\"head_encoded_bytes\": %lld, \"save_state_ms\": %.4f, "
        "\"load_state_ms\": %.4f}%s\n",
        static_cast<long long>(b.observes),
        static_cast<long long>(b.blob_bytes),
        static_cast<long long>(b.raw_blob_bytes),
        static_cast<long long>(b.head_raw_bytes),
        static_cast<long long>(b.head_encoded_bytes), b.save_ms, b.load_ms,
        i + 1 < br.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"gate_blob_roundtrip_exact\": %s\n}\n",
               gate_blob ? "true" : "false");
  std::fclose(json);
  std::printf("wrote %s\n", out_path.c_str());

  return (gate_zero_alloc && gate_bwd && gate_ledger && gate_served &&
          gate_predict && gate_resident && gate_blob)
             ? 0
             : 1;
}
