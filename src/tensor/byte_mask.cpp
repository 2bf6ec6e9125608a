#include "tensor/byte_mask.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "tensor/gemm.h"  // CHAM_SIMD_USE_AVX512: the one SIMD policy

#if defined(CHAM_SIMD_USE_AVX512) && defined(__AVX512BW__) && \
    defined(__AVX512VBMI2__) && defined(__BMI2__)
#define CHAM_BYTEMASK_USE_VBMI2 1
#include <immintrin.h>
#endif

namespace cham::bytemask {
namespace {

uint64_t load_mask(const char* p) {
  uint64_t m = 0;
  std::memcpy(&m, p, sizeof(m));
  return m;
}

#if defined(CHAM_BYTEMASK_USE_VBMI2)

// All lanes below `len` (1..64; _bzhi_u64 keeps every bit at 64).
__mmask64 lanes(std::size_t len) { return _bzhi_u64(~uint64_t{0}, len); }

std::size_t encode_vbmi2(const char* cur, const char* base, std::size_t n,
                         char* out) {
  char* o = out;
  for (std::size_t at = 0; at < n; at += kBlockBytes) {
    const __mmask64 live = lanes(std::min(kBlockBytes, n - at));
    __m512i x = _mm512_maskz_loadu_epi8(live, cur + at);
    if (base != nullptr) {
      x = _mm512_xor_si512(x, _mm512_maskz_loadu_epi8(live, base + at));
    }
    const __mmask64 mask = _mm512_test_epi8_mask(x, x);
    std::memcpy(o, &mask, sizeof(mask));
    const auto count = static_cast<std::size_t>(std::popcount(mask));
    _mm512_mask_storeu_epi8(o + 8, lanes(count),
                            _mm512_maskz_compress_epi8(mask, x));
    o += 8 + count;
  }
  return static_cast<std::size_t>(o - out);
}

std::size_t decode_vbmi2(const char* in, std::size_t in_n, const char* base,
                         std::size_t n, char* out) {
  std::size_t pos = 0;
  for (std::size_t at = 0; at < n; at += kBlockBytes) {
    const __mmask64 live = lanes(std::min(kBlockBytes, n - at));
    if (in_n - pos < 8) return kMalformed;
    const uint64_t mask = load_mask(in + pos);
    pos += 8;
    const auto count = static_cast<std::size_t>(std::popcount(mask));
    if ((mask & ~live) != 0 || count > in_n - pos) return kMalformed;
    __m512i x = _mm512_maskz_expand_epi8(
        mask, _mm512_maskz_loadu_epi8(lanes(count), in + pos));
    if (_mm512_test_epi8_mask(x, x) != mask) return kMalformed;
    if (base != nullptr) {
      x = _mm512_xor_si512(x, _mm512_maskz_loadu_epi8(live, base + at));
    }
    _mm512_mask_storeu_epi8(out + at, live, x);
    pos += count;
  }
  return pos;
}

#endif  // CHAM_BYTEMASK_USE_VBMI2

}  // namespace

namespace ref {

std::size_t encode(const void* cur_v, const void* base_v, std::size_t n,
                   char* out) {
  const auto* cur = static_cast<const unsigned char*>(cur_v);
  const auto* base = static_cast<const unsigned char*>(base_v);
  char* o = out;
  for (std::size_t at = 0; at < n; at += kBlockBytes) {
    const std::size_t len = std::min(kBlockBytes, n - at);
    char* mask_at = o;
    o += 8;
    uint64_t mask = 0;
    for (std::size_t i = 0; i < len; ++i) {
      const auto x = static_cast<unsigned char>(
          cur[at + i] ^ (base != nullptr ? base[at + i] : 0));
      if (x != 0) {
        mask |= uint64_t{1} << i;
        *o++ = static_cast<char>(x);
      }
    }
    std::memcpy(mask_at, &mask, sizeof(mask));
  }
  return static_cast<std::size_t>(o - out);
}

std::size_t decode(const char* in, std::size_t in_n, const void* base_v,
                   std::size_t n, void* out_v) {
  const auto* base = static_cast<const unsigned char*>(base_v);
  auto* out = static_cast<unsigned char*>(out_v);
  std::size_t pos = 0;
  for (std::size_t at = 0; at < n; at += kBlockBytes) {
    const std::size_t len = std::min(kBlockBytes, n - at);
    if (in_n - pos < 8) return kMalformed;
    const uint64_t mask = load_mask(in + pos);
    pos += 8;
    if ((len < kBlockBytes && (mask >> len) != 0) ||
        static_cast<std::size_t>(std::popcount(mask)) > in_n - pos) {
      return kMalformed;
    }
    for (std::size_t i = 0; i < len; ++i) {
      unsigned char x = 0;
      if ((mask >> i) & 1) {
        x = static_cast<unsigned char>(in[pos++]);
        if (x == 0) return kMalformed;
      }
      out[at + i] =
          static_cast<unsigned char>((base != nullptr ? base[at + i] : 0) ^ x);
    }
  }
  return pos;
}

}  // namespace ref

std::size_t encode(const void* cur, const void* base, std::size_t n,
                   char* out) {
#if defined(CHAM_BYTEMASK_USE_VBMI2)
  return encode_vbmi2(static_cast<const char*>(cur),
                      static_cast<const char*>(base), n, out);
#else
  return ref::encode(cur, base, n, out);
#endif
}

std::size_t decode(const char* in, std::size_t in_n, const void* base,
                   std::size_t n, void* out) {
#if defined(CHAM_BYTEMASK_USE_VBMI2)
  return decode_vbmi2(in, in_n, static_cast<const char*>(base), n,
                      static_cast<char*>(out));
#else
  return ref::decode(in, in_n, base, n, out);
#endif
}

bool simd() {
#if defined(CHAM_BYTEMASK_USE_VBMI2)
  return true;
#else
  return false;
#endif
}

}  // namespace cham::bytemask
