// google-benchmark microbenchmarks for Chameleon's memory-management path:
// Eq. 4 short-term selection, Eq. 5 prototype formation, Eq. 6 divergence
// scoring, buffer policies, and the systolic/FPGA cost models. These are
// the operations that run once per batch on-device, so they must be cheap
// relative to the training step itself.
#include <benchmark/benchmark.h>

#include "core/long_term_memory.h"
#include "core/preference_tracker.h"
#include "core/short_term_memory.h"
#include "hw/device.h"
#include "hw/fpga_model.h"
#include "hw/systolic.h"
#include "replay/buffer.h"

namespace cham {
namespace {

replay::ReplaySample make_sample(int64_t label, Rng& rng) {
  replay::ReplaySample s;
  s.label = label;
  s.latent = Tensor({1, 128, 2, 2});
  for (int64_t i = 0; i < s.latent.numel(); ++i) {
    s.latent[i] = rng.uniform_f(0.0f, 1.0f);
  }
  return s;
}

void BM_PreferenceTrackerUpdate(benchmark::State& state) {
  core::PreferenceTracker prefs(50, 5, 1500, 0.5f);
  Rng rng(1);
  for (auto _ : state) {
    prefs.update(rng.uniform_int(50));
  }
}
BENCHMARK(BM_PreferenceTrackerUpdate);

void BM_ShortTermSelection(benchmark::State& state) {
  core::ShortTermMemory st(10, {});
  core::PreferenceTracker prefs(50, 5, 100, 0.5f);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) prefs.update(rng.uniform_int(50));
  std::vector<replay::ReplaySample> batch;
  std::vector<data::ImageKey> keys;
  std::vector<int64_t> labels;
  std::vector<const float*> rows;
  for (int i = 0; i < 10; ++i) batch.push_back(make_sample(i % 50, rng));
  for (const auto& s : batch) {
    keys.push_back(s.key);
    labels.push_back(s.label);
    rows.push_back(s.latent.data());
  }
  Tensor logits({10, 50});
  for (int64_t i = 0; i < logits.numel(); ++i)
    logits[i] = rng.normal_f(0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(st.update(keys, labels, rows,
                                       batch.front().latent.shape(), logits,
                                       prefs, rng));
  }
}
BENCHMARK(BM_ShortTermSelection);

void BM_PrototypeFormation(benchmark::State& state) {
  const int64_t per_class = state.range(0);
  core::LongTermMemory lt(per_class * 10, 10);
  Rng rng(3);
  for (int64_t c = 0; c < 10; ++c) {
    for (int64_t i = 0; i < per_class; ++i) {
      const auto s = make_sample(c, rng);
      lt.insert(s.key, s.label, s.latent.shape(), s.latent.data(), rng);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lt.prototype(3));
  }
}
BENCHMARK(BM_PrototypeFormation)->Arg(2)->Arg(10)->Arg(30);

void BM_LongTermUpdate(benchmark::State& state) {
  core::LongTermMemory lt(100, 50);
  Rng rng(4);
  replay::SlotStore st(10);
  for (int i = 0; i < 10; ++i) {
    const auto s = make_sample(i % 5, rng);
    st.random_replace_add(s.key, s.label, s.latent, rng);
    lt.insert(s.key, s.label, s.latent.shape(), s.latent.data(), rng);
  }
  auto score = [&](std::span<const float* const> rows) {
    return Tensor::full(Shape{{static_cast<int64_t>(rows.size()), 50}},
                        0.02f);
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(lt.update_from(st, score, rng));
  }
}
BENCHMARK(BM_LongTermUpdate);

void BM_ReservoirInsert(benchmark::State& state) {
  replay::ReplayBuffer buf(500);
  Rng rng(5);
  int64_t label = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(buf.reservoir_add(make_sample(label++ % 50, rng), rng));
  }
}
BENCHMARK(BM_ReservoirInsert);

void BM_SystolicGemmModel(benchmark::State& state) {
  hw::SystolicArraySim sim({64, 64, 400e6});
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.gemm(64, 256, 256));
  }
}
BENCHMARK(BM_SystolicGemmModel);

void BM_SystolicOutputStationary(benchmark::State& state) {
  hw::SystolicArraySim sim({64, 64, 400e6});
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.gemm_output_stationary(64, 256, 256));
  }
}
BENCHMARK(BM_SystolicOutputStationary);

void BM_CostModel(benchmark::State& state) {
  core::OpStats stats;
  stats.images = 1000;
  stats.f_fwd_macs = 2.5e9;
  stats.g_fwd_macs = 5e8;
  stats.g_bwd_macs = 1e9;
  stats.onchip_bytes = 1e7;
  stats.offchip_bytes = 1e6;
  const auto dev = hw::zcu102_fpga();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hw::estimate_cost(stats, dev, 0.2));
  }
}
BENCHMARK(BM_CostModel);

void BM_FpgaResourceEstimate(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(hw::estimate_fpga_resources({}));
  }
}
BENCHMARK(BM_FpgaResourceEstimate);

}  // namespace
}  // namespace cham

BENCHMARK_MAIN();
