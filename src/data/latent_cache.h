// Latent-activation cache over the frozen backbone f.
//
// f never changes during continual learning, so the latent of a pool image is
// computed once per process and shared by every method / run in a benchmark.
// On real hardware, methods that store raw images (ER/DER/GSS) must re-run f
// on every replay — that cost is charged by the hardware cost model
// (src/hw), not here; this cache is purely a host-side speed optimisation
// that is numerically identical to recomputation.
//
// Entries are never erased and unordered_map references survive insertion,
// so the references latent() returns stay valid for the cache's lifetime.
//
// Concurrency contract (the serving runtime shares one cache across shard
// workers): every public entry point is serialised by an internal mutex,
// which with the stable references above makes the cache safe to use from
// any number of threads. A miss computes the latent under the lock, so
// each key is inserted once.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "data/dataset.h"
#include "nn/sequential.h"
#include "util/sync.h"

namespace cham::data {

class LatentCache {
 public:
  // `f` must outlive the cache. `cfg` is the dataset the keys refer to.
  LatentCache(const DatasetConfig& cfg, nn::Sequential& f)
      : cfg_(cfg), f_(f) {}

  // Latent activation (1 x C x H x W) of one image; computed on miss. The
  // reference stays valid for the cache's lifetime.
  const Tensor& latent(const ImageKey& key) CHAM_EXCLUDES(mu_);

  // Precompute a set of keys in batches (faster GEMMs than one-by-one).
  void warm(const std::vector<ImageKey>& keys, int64_t batch = 32)
      CHAM_EXCLUDES(mu_);

  int64_t size() const CHAM_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return static_cast<int64_t>(cache_.size());
  }

 private:
  DatasetConfig cfg_;      // immutable after construction
  nn::Sequential& f_;      // frozen backbone; forward() is const-safe
  std::unordered_map<uint64_t, Tensor> cache_ CHAM_GUARDED_BY(mu_);
  mutable util::Mutex mu_;
};

// Stacks per-sample latents (each 1 x C x H x W) into an N x C x H x W batch.
//
// The zero-copy replay path (gather-fused GEMM packing) made this copy
// unnecessary on the observe/predict hot paths; it survives for the
// reference oracle and cold paths. Every call bumps a process-global
// counter so bench_observe can gate on ZERO stacking copies in the steady
// state (and cham_lint statically rejects new calls inside hot_path marker
// regions).
Tensor stack_latents(const std::vector<const Tensor*>& latents);

// Process-global count of stack_latents() calls since process start.
// Monotone; relaxed atomic (a cross-thread snapshot may lag, which is fine
// for the single-threaded bench gate that consumes it).
int64_t stack_latents_calls();

}  // namespace cham::data
