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
  // Frozen backbone. Even an eval-mode forward writes per-layer scratch
  // (row tables, BatchNorm's inverse std), so f_ runs only under mu_.
  nn::Sequential& f_;
  std::unordered_map<uint64_t, Tensor> cache_ CHAM_GUARDED_BY(mu_);
  mutable util::Mutex mu_;
};

}  // namespace cham::data
