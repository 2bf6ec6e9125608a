// Fixed-capacity replay buffer with the two insertion policies used across
// the baselines: reservoir sampling (ER/DER) and random replacement.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "replay/sample.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"
#include "util/check.h"

namespace cham::replay {

class ReplayBuffer {
 public:
  explicit ReplayBuffer(int64_t capacity) : capacity_(capacity) {}

  int64_t capacity() const { return capacity_; }
  int64_t size() const { return static_cast<int64_t>(items_.size()); }
  bool full() const { return size() >= capacity_; }
  int64_t seen() const { return seen_; }

  const ReplaySample& item(int64_t i) const {
    return items_[static_cast<size_t>(i)];
  }
  ReplaySample& item(int64_t i) { return items_[static_cast<size_t>(i)]; }
  const std::vector<ReplaySample>& items() const { return items_; }

  // Classic reservoir sampling: keeps a uniform subsample of the stream.
  // Returns the slot written, or -1 if the sample was dropped.
  int64_t reservoir_add(ReplaySample sample, Rng& rng) {
    ++seen_;
    if (!full()) {
      items_.push_back(std::move(sample));
      return size() - 1;
    }
    const int64_t j = rng.uniform_int(seen_);
    if (j < capacity_) {
      items_[static_cast<size_t>(j)] = std::move(sample);
      return j;
    }
    return -1;
  }

  // Appends while not full, then overwrites a uniformly random slot.
  int64_t random_replace_add(ReplaySample sample, Rng& rng) {
    ++seen_;
    if (!full()) {
      items_.push_back(std::move(sample));
      return size() - 1;
    }
    const int64_t j = rng.uniform_int(capacity_);
    items_[static_cast<size_t>(j)] = std::move(sample);
    return j;
  }

  // Indices of up to k distinct samples drawn uniformly at random.
  std::vector<int64_t> sample_indices(int64_t k, Rng& rng) const {
    return rng.sample_without_replacement(size(), std::min(k, size()));
  }

  void clear() {
    items_.clear();
    seen_ = 0;
  }

 private:
  int64_t capacity_;
  int64_t seen_ = 0;
  std::vector<ReplaySample> items_;
};

// Slot-stable replay store backed by ONE contiguous slab: slot i's latent
// is the row_numel() floats at row(i), at a fixed offset for the store's
// whole lifetime. Chameleon's short-term memory is one; its long-term
// memory is one per class. This is what makes the replay path zero-copy —
// the training gather packs GEMM panels straight out of the slab (rows are
// unit-stride), and checkpointing range-copies [row(0), row(size())) in a
// single memcpy instead of walking per-slot tensors.
//
// Insertion follows ReplayBuffer::random_replace_add exactly (append while
// below capacity, then overwrite a uniformly random slot) with the same
// RNG draw sequence, so a SlotStore is bit-identical to the per-tensor
// buffers it replaced.
//
// Row geometry is configured by the first insertion and fixed thereafter
// (every latent shares the backbone's latent shape); the slab is allocated
// once at configure time through the workspace pool.
class SlotStore {
 public:
  explicit SlotStore(int64_t capacity) : capacity_(capacity) {}

  int64_t capacity() const { return capacity_; }
  int64_t size() const { return size_; }
  bool full() const { return size_ >= capacity_; }
  int64_t seen() const { return seen_; }
  bool configured() const { return row_numel_ > 0; }
  const Shape& row_shape() const { return row_shape_; }
  int64_t row_numel() const { return row_numel_; }

  const data::ImageKey& key(int64_t i) const {
    return keys_[static_cast<size_t>(i)];
  }
  int64_t label(int64_t i) const { return labels_[static_cast<size_t>(i)]; }
  const float* row(int64_t i) const {
    CHAM_DCHECK(i >= 0 && i < size_, "SlotStore row " + std::to_string(i) +
                                         " of " + std::to_string(size_));
    return slab_.data() + i * row_numel_;
  }
  // Base of the contiguous occupied range [rows(), rows() + size() *
  // row_numel()); what checkpointing serialises with one range write.
  const float* rows() const { return slab_.data(); }

  // Fixes the row geometry and allocates the slab (idempotent; the shape
  // must match once set).
  void configure(const Shape& shape) {
    if (configured()) {
      CHAM_CHECK(shape == row_shape_,
                 "SlotStore row shape " + shape.to_string() +
                     " differs from configured " + row_shape_.to_string());
      return;
    }
    CHAM_CHECK(shape.numel() > 0, "SlotStore: empty row shape");
    row_shape_ = shape;
    row_numel_ = shape.numel();
    slab_.resize(static_cast<size_t>(capacity_ * row_numel_));
    keys_.resize(static_cast<size_t>(capacity_));
    labels_.resize(static_cast<size_t>(capacity_));
  }

  // The slot random_replace_add writes next: the first free one while below
  // capacity, else a uniformly random one. Same policy and RNG consumption
  // as ReplayBuffer::random_replace_add: one uniform_int(capacity) draw if
  // and only if the store is full.
  int64_t next_slot(Rng& rng) const {
    return full() ? rng.uniform_int(capacity_) : size_;
  }

  // Writes one row into `slot` (an occupied slot, or size() to append) and
  // counts it as seen.
  void write(int64_t slot, const data::ImageKey& key, int64_t label,
             const Shape& shape, const float* src) {
    configure(shape);
    CHAM_CHECK(slot >= 0 && slot <= size_ && slot < capacity_,
               "SlotStore write to slot " + std::to_string(slot) + " of " +
                   std::to_string(size_));
    ++seen_;
    if (slot == size_) ++size_;
    std::memcpy(slab_.data() + slot * row_numel_, src,
                static_cast<size_t>(row_numel_) * sizeof(float));
    keys_[static_cast<size_t>(slot)] = key;
    labels_[static_cast<size_t>(slot)] = label;
  }

  // Appends while not full, then overwrites a uniformly random slot.
  int64_t random_replace_add(const data::ImageKey& key, int64_t label,
                             const Shape& shape, const float* src, Rng& rng) {
    const int64_t slot = next_slot(rng);
    write(slot, key, label, shape, src);
    return slot;
  }
  int64_t random_replace_add(const data::ImageKey& key, int64_t label,
                             const Tensor& latent, Rng& rng) {
    return random_replace_add(key, label, latent.shape(), latent.data(), rng);
  }

  void clear() {
    size_ = 0;
    seen_ = 0;
  }

  // Restores the stream counter after deserialisation so future insertion
  // probabilities continue from the checkpointed position.
  void set_seen(int64_t seen) { seen_ = seen; }

 private:
  int64_t capacity_;
  int64_t seen_ = 0;
  int64_t size_ = 0;
  Shape row_shape_;
  int64_t row_numel_ = 0;
  ws::FloatBuffer slab_;
  std::vector<data::ImageKey> keys_;
  std::vector<int64_t> labels_;
};

}  // namespace cham::replay
