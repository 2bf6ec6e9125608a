#include "data/latent_cache.h"

#include <algorithm>
#include <atomic>

#include "util/check.h"

namespace cham::data {

const Tensor& LatentCache::latent(const ImageKey& key) {
  util::MutexLock lock(mu_);
  const uint64_t k = key.packed();
  auto it = cache_.find(k);
  if (it != cache_.end()) return it->second;
  // Miss path runs the backbone under the lock: concurrent misses would be
  // numerically identical anyway (frozen f); this keeps one insert per key.
  const Tensor img = synthesize_batch(cfg_, {key});
  return cache_.emplace(k, f_.forward(img, /*train=*/false)).first->second;
}

void LatentCache::warm(const std::vector<ImageKey>& keys, int64_t batch) {
  util::MutexLock lock(mu_);
  std::vector<ImageKey> missing;
  for (const ImageKey& key : keys) {
    if (!cache_.contains(key.packed())) missing.push_back(key);
  }
  for (size_t start = 0; start < missing.size();
       start += static_cast<size_t>(batch)) {
    const size_t end =
        std::min(missing.size(), start + static_cast<size_t>(batch));
    std::vector<ImageKey> chunk(missing.begin() + static_cast<int64_t>(start),
                                missing.begin() + static_cast<int64_t>(end));
    const Tensor imgs = synthesize_batch(cfg_, chunk);
    const Tensor z = f_.forward(imgs, /*train=*/false);
    const int64_t per = z.numel() / z.dim(0);
    const Shape row_shape{{1, z.dim(1), z.dim(2), z.dim(3)}};
    for (size_t i = 0; i < chunk.size(); ++i) {
      // Single copy straight out of the batched forward (the old path
      // zero-filled a tensor and then overwrote it — two passes over
      // every latent during warm-up).
      cache_.emplace(chunk[i].packed(),
                     Tensor(row_shape,
                            std::span<const float>(
                                z.data() + static_cast<int64_t>(i) * per,
                                static_cast<size_t>(per))));
    }
  }
}

namespace {
std::atomic<int64_t> g_stack_latents_calls{0};
}  // namespace

int64_t stack_latents_calls() {
  return g_stack_latents_calls.load(std::memory_order_relaxed);
}

Tensor stack_latents(const std::vector<const Tensor*>& latents) {
  g_stack_latents_calls.fetch_add(1, std::memory_order_relaxed);
  CHAM_CHECK(!latents.empty(), "stack of zero latents");
  const Tensor& first = *latents.front();
  CHAM_CHECK(first.rank() == 4 && first.dim(0) == 1,
             "latent " + first.shape().to_string() + " is not 1xCxHxW");
  Tensor out({static_cast<int64_t>(latents.size()), first.dim(1),
              first.dim(2), first.dim(3)});
  const int64_t per = first.numel();
  for (size_t i = 0; i < latents.size(); ++i) {
    CHAM_CHECK_SHAPE(latents[i]->shape(), first.shape());
    std::copy(latents[i]->data(), latents[i]->data() + per,
              out.data() + static_cast<int64_t>(i) * per);
  }
  return out;
}

}  // namespace cham::data
