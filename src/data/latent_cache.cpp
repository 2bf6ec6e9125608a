#include "data/latent_cache.h"

#include <algorithm>

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

}  // namespace cham::data
