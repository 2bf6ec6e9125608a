#include "tensor/im2col.h"

#include <string>

#include "tensor/thread_pool.h"
#include "util/check.h"

namespace cham {
namespace {

// Entry contract shared by both directions: a well-formed geometry (positive
// extents, kernel reachable from the padded input) and non-null panels.
// Params are maybe_unused because the body compiles empty at CHAM_CHECKS=off.
void check_geometry([[maybe_unused]] const char* name,
                    [[maybe_unused]] const float* img,
                    [[maybe_unused]] const ConvGeometry& g,
                    [[maybe_unused]] const float* col) {
  CHAM_CHECK(g.in_c > 0 && g.in_h > 0 && g.in_w > 0,
             std::string(name) + ": non-positive input extent");
  CHAM_CHECK(g.kernel > 0 && g.stride > 0 && g.pad >= 0,
             std::string(name) + ": bad kernel/stride/pad");
  CHAM_CHECK(g.in_h + 2 * g.pad >= g.kernel && g.in_w + 2 * g.pad >= g.kernel,
             std::string(name) + ": kernel " + std::to_string(g.kernel) +
                 " exceeds padded input " + std::to_string(g.in_h) + "x" +
                 std::to_string(g.in_w) + " (pad " + std::to_string(g.pad) +
                 ")");
  CHAM_CHECK(img != nullptr && col != nullptr,
             std::string(name) + ": null image/column panel");
}

}  // namespace

void im2col(const float* img, const ConvGeometry& g, float* col) {
  check_geometry("im2col", img, g, col);
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t rows_per_c = g.kernel * g.kernel;
  // Channels own disjoint row blocks of the column matrix, so the channel
  // loop parallelises without any write overlap. One channel writes
  // k*k*oh*ow column elements.
  parallel_for(
      0, g.in_c,
      [&](int64_t c0, int64_t c1) {
        for (int64_t c = c0; c < c1; ++c) {
          const float* plane = img + c * g.in_h * g.in_w;
          int64_t row = c * rows_per_c;
          for (int64_t kh = 0; kh < g.kernel; ++kh) {
            for (int64_t kw = 0; kw < g.kernel; ++kw, ++row) {
              float* out = col + row * oh * ow;
              for (int64_t y = 0; y < oh; ++y) {
                const int64_t iy = y * g.stride + kh - g.pad;
                if (iy < 0 || iy >= g.in_h) {
                  for (int64_t x = 0; x < ow; ++x) out[y * ow + x] = 0.0f;
                  continue;
                }
                const float* src = plane + iy * g.in_w;
                for (int64_t x = 0; x < ow; ++x) {
                  const int64_t ix = x * g.stride + kw - g.pad;
                  out[y * ow + x] =
                      (ix >= 0 && ix < g.in_w) ? src[ix] : 0.0f;
                }
              }
            }
          }
        }
      },
      work_grain(rows_per_c * oh * ow));
}

void col2im(const float* col, const ConvGeometry& g, float* img) {
  check_geometry("col2im", img, g, col);
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t rows_per_c = g.kernel * g.kernel;
  // Taps overlap across (kh, kw) within one channel but never across
  // channels; per-channel the accumulation order matches the serial loop.
  // One channel reads k*k*oh*ow column elements.
  parallel_for(
      0, g.in_c,
      [&](int64_t c0, int64_t c1) {
        for (int64_t c = c0; c < c1; ++c) {
          float* plane = img + c * g.in_h * g.in_w;
          int64_t row = c * rows_per_c;
          for (int64_t kh = 0; kh < g.kernel; ++kh) {
            for (int64_t kw = 0; kw < g.kernel; ++kw, ++row) {
              const float* in = col + row * oh * ow;
              for (int64_t y = 0; y < oh; ++y) {
                const int64_t iy = y * g.stride + kh - g.pad;
                if (iy < 0 || iy >= g.in_h) continue;
                float* dst = plane + iy * g.in_w;
                for (int64_t x = 0; x < ow; ++x) {
                  const int64_t ix = x * g.stride + kw - g.pad;
                  if (ix >= 0 && ix < g.in_w) dst[ix] += in[y * ow + x];
                }
              }
            }
          }
        }
      },
      work_grain(rows_per_c * oh * ow));
}

}  // namespace cham
