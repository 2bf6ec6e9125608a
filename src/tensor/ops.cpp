#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "tensor/thread_pool.h"

namespace cham::ops {

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out += b;
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out -= b;
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  CHAM_CHECK_SHAPE(a.shape(), b.shape());
  Tensor out = a;
  parallel_for(
      0, out.numel(),
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) out[i] *= b[i];
      },
      kChunkElems);
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out = a;
  out *= s;
  return out;
}

float sum(const Tensor& a) {
  double acc = 0;
  for (int64_t i = 0; i < a.numel(); ++i) acc += a[i];
  return static_cast<float>(acc);
}

float mean(const Tensor& a) {
  CHAM_CHECK(a.numel() > 0, "mean of empty tensor");
  return sum(a) / static_cast<float>(a.numel());
}

float max(const Tensor& a) {
  CHAM_CHECK(a.numel() > 0, "max of empty tensor");
  float m = a[0];
  for (int64_t i = 1; i < a.numel(); ++i) m = std::max(m, a[i]);
  return m;
}

int64_t argmax(std::span<const float> v) {
  CHAM_CHECK(!v.empty(), "argmax of empty span");
  int64_t best = 0;
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[static_cast<size_t>(best)]) best = static_cast<int64_t>(i);
  }
  return best;
}

float dot(std::span<const float> a, std::span<const float> b) {
  CHAM_CHECK(a.size() == b.size(),
             "dot length mismatch: " + std::to_string(a.size()) + " vs " +
                 std::to_string(b.size()));
  double acc = 0;
  for (size_t i = 0; i < a.size(); ++i) acc += double(a[i]) * double(b[i]);
  return static_cast<float>(acc);
}

float sq_norm(const Tensor& a) {
  double acc = 0;
  for (int64_t i = 0; i < a.numel(); ++i) acc += double(a[i]) * double(a[i]);
  return static_cast<float>(acc);
}

float l2_norm(const Tensor& a) { return std::sqrt(sq_norm(a)); }

std::vector<float> softmax_row(std::span<const float> logits) {
  std::vector<float> out(logits.size());
  float m = logits[0];
  for (float v : logits) m = std::max(m, v);
  double z = 0;
  for (size_t i = 0; i < logits.size(); ++i) {
    out[i] = std::exp(logits[i] - m);
    z += out[i];
  }
  const float inv = static_cast<float>(1.0 / z);
  for (float& v : out) v *= inv;
  return out;
}

Tensor softmax(const Tensor& logits) {
  const bool is2d = logits.rank() == 2;
  const int64_t rows = is2d ? logits.dim(0) : 1;
  const int64_t cols = is2d ? logits.dim(1) : logits.numel();
  Tensor out(logits.shape());
  parallel_for(
      0, rows,
      [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const float* in = logits.data() + r * cols;
          float* o = out.data() + r * cols;
          float m = in[0];
          for (int64_t c = 1; c < cols; ++c) m = std::max(m, in[c]);
          double z = 0;
          for (int64_t c = 0; c < cols; ++c) {
            o[c] = std::exp(in[c] - m);
            z += o[c];
          }
          const float inv = static_cast<float>(1.0 / z);
          for (int64_t c = 0; c < cols; ++c) o[c] *= inv;
        }
      },
      work_grain(cols));
  return out;
}

Tensor log_softmax(const Tensor& logits) {
  const bool is2d = logits.rank() == 2;
  const int64_t rows = is2d ? logits.dim(0) : 1;
  const int64_t cols = is2d ? logits.dim(1) : logits.numel();
  Tensor out(logits.shape());
  parallel_for(
      0, rows,
      [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const float* in = logits.data() + r * cols;
          float* o = out.data() + r * cols;
          float m = in[0];
          for (int64_t c = 1; c < cols; ++c) m = std::max(m, in[c]);
          double z = 0;
          for (int64_t c = 0; c < cols; ++c) z += std::exp(in[c] - m);
          const float logz = m + static_cast<float>(std::log(z));
          for (int64_t c = 0; c < cols; ++c) o[c] = in[c] - logz;
        }
      },
      work_grain(cols));
  return out;
}

double kl_divergence(std::span<const float> p, std::span<const float> q) {
  CHAM_CHECK(p.size() == q.size(),
             "KL length mismatch: " + std::to_string(p.size()) + " vs " +
                 std::to_string(q.size()));
  constexpr double kEps = 1e-8;
  double kl = 0;
  for (size_t i = 0; i < p.size(); ++i) {
    const double pi = std::max(double(p[i]), 0.0);
    if (pi <= 0) continue;
    const double qi = std::max(double(q[i]), kEps);
    kl += pi * std::log(pi / qi);
  }
  return std::max(kl, 0.0);
}

void fill_normal(Tensor& t, Rng& rng, float mean, float stddev) {
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = rng.normal_f(mean, stddev);
}

void fill_uniform(Tensor& t, Rng& rng, float lo, float hi) {
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(lo, hi);
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  CHAM_CHECK_SHAPE(a.shape(), b.shape());
  double m = 0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    m = std::max(m, std::abs(double(a[i]) - double(b[i])));
  }
  return m;
}

Tensor concat0(const std::vector<const Tensor*>& parts) {
  CHAM_CHECK(!parts.empty(), "concat0 of zero parts");
  const Shape& first = parts.front()->shape();
  int64_t lead = 0;
  for (const Tensor* p : parts) {
    CHAM_CHECK(p->rank() == first.rank(),
               "concat0 rank mismatch: " + p->shape().to_string() + " vs " +
                   first.to_string());
    for (int64_t d = 1; d < first.rank(); ++d) {
      CHAM_CHECK(p->shape()[d] == first[d],
                 "concat0 trailing-dim mismatch: " + p->shape().to_string() +
                     " vs " + first.to_string());
    }
    lead += p->dim(0);
  }
  Shape out_shape = first;
  out_shape.set_dim(0, lead);
  Tensor out(out_shape);
  int64_t offset = 0;
  for (const Tensor* p : parts) {
    std::copy(p->data(), p->data() + p->numel(), out.data() + offset);
    offset += p->numel();
  }
  return out;
}

Tensor slice0(const Tensor& t, int64_t begin, int64_t end) {
  CHAM_CHECK(begin >= 0 && begin <= end && end <= t.dim(0),
             "slice0 [" + std::to_string(begin) + ", " + std::to_string(end) +
                 ") of " + t.shape().to_string());
  const int64_t per = t.numel() / t.dim(0);
  Shape out_shape = t.shape();
  out_shape.set_dim(0, end - begin);
  Tensor out(out_shape);
  std::copy(t.data() + begin * per, t.data() + end * per, out.data());
  return out;
}

Tensor transpose2d(const Tensor& t) {
  CHAM_CHECK(t.rank() == 2, "transpose2d of " + t.shape().to_string());
  Tensor out({t.dim(1), t.dim(0)});
  for (int64_t i = 0; i < t.dim(0); ++i) {
    for (int64_t j = 0; j < t.dim(1); ++j) out.at(j, i) = t.at(i, j);
  }
  return out;
}

std::vector<int64_t> topk_indices(std::span<const float> v, int64_t k) {
  std::vector<int64_t> idx(v.size());
  for (size_t i = 0; i < v.size(); ++i) idx[i] = static_cast<int64_t>(i);
  const int64_t kk = std::min<int64_t>(k, static_cast<int64_t>(v.size()));
  std::partial_sort(idx.begin(), idx.begin() + kk, idx.end(),
                    [&](int64_t a, int64_t b) {
                      return v[static_cast<size_t>(a)] >
                             v[static_cast<size_t>(b)];
                    });
  idx.resize(static_cast<size_t>(kk));
  return idx;
}

}  // namespace cham::ops
