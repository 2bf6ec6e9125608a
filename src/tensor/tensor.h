// Dense float32 tensor with value semantics.
//
// The whole framework runs on small models (MobileNetV1 at 32x32, width
// multiplier <= 0.5), so a simple contiguous row-major tensor with explicit
// copies is both fast enough and trivially correct. No views, no reference
// counting: a Tensor owns its storage.
//
// Storage comes from the workspace pool (tensor/workspace.h): freed buffers
// recycle through a size-class freelist, so the steady-state replay loop
// creates and destroys Tensors without touching the heap.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "tensor/workspace.h"
#include "util/check.h"

// No-alias qualifier for kernel pointers: tells the compiler that writes
// through one pointer never change what another reads, so element loops
// vectorise without runtime overlap checks. Callers guarantee the spans are
// disjoint.
#if defined(__GNUC__) || defined(__clang__)
#define CHAM_RESTRICT __restrict__
#else
#define CHAM_RESTRICT
#endif

namespace cham {

// Shape of a tensor: up to 4 dimensions in practice (N, C, H, W), stored
// inline (a Shape used to heap-allocate a std::vector, which charged a
// malloc to every Tensor construction on the hot path). Dimensions are
// signed to avoid unsigned-arithmetic surprises.
class Shape {
 public:
  static constexpr int64_t kMaxRank = 6;

  Shape() = default;
  Shape(std::initializer_list<int64_t> dims) {
    init({dims.begin(), dims.size()});
  }
  explicit Shape(std::span<const int64_t> dims) { init(dims); }
  explicit Shape(const std::vector<int64_t>& dims) {
    init({dims.data(), dims.size()});
  }

  int64_t rank() const { return rank_; }
  int64_t operator[](int64_t i) const {
    CHAM_DCHECK(i >= 0 && i < rank(),
                "Shape dim " + std::to_string(i) + " out of rank " +
                    std::to_string(rank()));
    return dims_[static_cast<size_t>(i)];
  }
  int64_t numel() const {
    int64_t n = 1;
    for (int64_t i = 0; i < rank_; ++i) n *= dims_[static_cast<size_t>(i)];
    return n;
  }
  std::span<const int64_t> dims() const {
    return {dims_, static_cast<size_t>(rank_)};
  }
  // Replaces one dimension (used to restamp the batch axis in concat/slice).
  void set_dim(int64_t i, int64_t v) {
    CHAM_CHECK(i >= 0 && i < rank(),
               "Shape::set_dim " + std::to_string(i) + " out of rank " +
                   std::to_string(rank()));
    dims_[static_cast<size_t>(i)] = v;
  }
  bool operator==(const Shape& o) const {
    if (rank_ != o.rank_) return false;
    for (int64_t i = 0; i < rank_; ++i) {
      if (dims_[static_cast<size_t>(i)] != o.dims_[static_cast<size_t>(i)]) {
        return false;
      }
    }
    return true;
  }
  bool operator!=(const Shape& o) const { return !(*this == o); }
  std::string to_string() const;

 private:
  void init(std::span<const int64_t> dims) {
    CHAM_CHECK(dims.size() <= static_cast<size_t>(kMaxRank),
               "Shape rank " + std::to_string(dims.size()) + " exceeds max " +
                   std::to_string(kMaxRank));
    rank_ = static_cast<int64_t>(dims.size());
    for (size_t i = 0; i < dims.size(); ++i) dims_[i] = dims[i];
  }

  int64_t dims_[kMaxRank] = {};
  int64_t rank_ = 0;
};

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape)
      : shape_(shape), data_(static_cast<size_t>(shape_.numel()), 0.0f) {}
  // Single-copy construction from existing values (e.g. a row slice of a
  // batched forward result).
  Tensor(Shape shape, std::span<const float> data)
      : shape_(shape), data_(data.begin(), data.end()) {
    CHAM_CHECK(static_cast<int64_t>(data_.size()) == shape_.numel(),
               "data size " + std::to_string(data_.size()) +
                   " != shape numel for " + shape_.to_string());
  }
  Tensor(Shape shape, const std::vector<float>& data)
      : Tensor(shape, std::span<const float>(data)) {}
  Tensor(Shape shape, ws::FloatBuffer data)
      : shape_(shape), data_(std::move(data)) {
    CHAM_CHECK(static_cast<int64_t>(data_.size()) == shape_.numel(),
               "data size " + std::to_string(data_.size()) +
                   " != shape numel for " + shape_.to_string());
  }
  Tensor(std::initializer_list<int64_t> dims) : Tensor(Shape(dims)) {}

  static Tensor zeros(Shape shape) { return Tensor(shape); }
  static Tensor full(Shape shape, float value);
  static Tensor scalar(float value) { return full(Shape{{1}}, value); }
  // 1-D tensor from values.
  static Tensor from(std::initializer_list<float> values);

  const Shape& shape() const { return shape_; }
  int64_t numel() const { return shape_.numel(); }
  int64_t dim(int64_t i) const { return shape_[i]; }
  int64_t rank() const { return shape_.rank(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> span() { return {data_.data(), data_.size()}; }
  std::span<const float> span() const { return {data_.data(), data_.size()}; }

  // Element access bounds are CHAM_DCHECKed: free in the default cheap tier
  // (same codegen as the seed Release build), enforced under
  // -DCHAM_CHECKS=full where out-of-range access throws CheckError instead
  // of silently reading adjacent storage.
  float& operator[](int64_t i) {
    CHAM_DCHECK(i >= 0 && i < numel(),
                "flat index " + std::to_string(i) + " out of range for " +
                    shape_.to_string());
    return data_[static_cast<size_t>(i)];
  }
  float operator[](int64_t i) const {
    CHAM_DCHECK(i >= 0 && i < numel(),
                "flat index " + std::to_string(i) + " out of range for " +
                    shape_.to_string());
    return data_[static_cast<size_t>(i)];
  }

  // 2-D indexed access (rows x cols).
  float& at(int64_t r, int64_t c) {
    CHAM_DCHECK(rank() == 2, "2-D at() on " + shape_.to_string());
    CHAM_DCHECK(r >= 0 && r < dim(0) && c >= 0 && c < dim(1),
                "(" + std::to_string(r) + ", " + std::to_string(c) +
                    ") out of range for " + shape_.to_string());
    return data_[static_cast<size_t>(r * dim(1) + c)];
  }
  float at(int64_t r, int64_t c) const {
    CHAM_DCHECK(rank() == 2, "2-D at() on " + shape_.to_string());
    CHAM_DCHECK(r >= 0 && r < dim(0) && c >= 0 && c < dim(1),
                "(" + std::to_string(r) + ", " + std::to_string(c) +
                    ") out of range for " + shape_.to_string());
    return data_[static_cast<size_t>(r * dim(1) + c)];
  }
  // 4-D indexed access (NCHW).
  float& at(int64_t n, int64_t c, int64_t h, int64_t w) {
    CHAM_DCHECK(rank() == 4, "4-D at() on " + shape_.to_string());
    CHAM_DCHECK(n >= 0 && n < dim(0) && c >= 0 && c < dim(1) && h >= 0 &&
                    h < dim(2) && w >= 0 && w < dim(3),
                "NCHW index out of range for " + shape_.to_string());
    return data_[static_cast<size_t>(
        ((n * dim(1) + c) * dim(2) + h) * dim(3) + w)];
  }
  float at(int64_t n, int64_t c, int64_t h, int64_t w) const {
    CHAM_DCHECK(rank() == 4, "4-D at() on " + shape_.to_string());
    CHAM_DCHECK(n >= 0 && n < dim(0) && c >= 0 && c < dim(1) && h >= 0 &&
                    h < dim(2) && w >= 0 && w < dim(3),
                "NCHW index out of range for " + shape_.to_string());
    return data_[static_cast<size_t>(
        ((n * dim(1) + c) * dim(2) + h) * dim(3) + w)];
  }

  // Returns a copy with the same data but a different shape (numel preserved).
  Tensor reshaped(Shape new_shape) const;

  // Fill every element with `value`.
  void fill(float value);

  // In-place arithmetic with broadcasting disabled: shapes must match exactly.
  Tensor& operator+=(const Tensor& o);
  Tensor& operator-=(const Tensor& o);
  Tensor& operator*=(float s);

  // Row `r` of a 2-D tensor as a span of length dim(1).
  std::span<const float> row(int64_t r) const {
    CHAM_DCHECK(rank() == 2 && r >= 0 && r < dim(0),
                "row " + std::to_string(r) + " of " + shape_.to_string());
    return {data_.data() + static_cast<size_t>(r * dim(1)),
            static_cast<size_t>(dim(1))};
  }
  std::span<float> row(int64_t r) {
    CHAM_DCHECK(rank() == 2 && r >= 0 && r < dim(0),
                "row " + std::to_string(r) + " of " + shape_.to_string());
    return {data_.data() + static_cast<size_t>(r * dim(1)),
            static_cast<size_t>(dim(1))};
  }

  std::string to_string(int64_t max_elems = 16) const;

 private:
  Shape shape_;
  ws::FloatBuffer data_;
};

}  // namespace cham
