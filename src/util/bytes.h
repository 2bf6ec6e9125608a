// Little-endian byte primitives for every binary format parsed from
// untrusted bytes: the wire protocol (net/protocol.h), the CHS2 learner
// blobs and CHS3 op-log delta frames (core/checkpoint.h) and the CHAMNN01
// parameter file (nn/model_io.h). The wire and the op logs carry batches
// and key lists through the one codec in data/stream.h, which is built on
// these.
//
// The put_* writers append to any byte vector (net::WireBuf holds uint8_t,
// ws::ByteBuf pool-allocated char). Reader walks a borrowed span: every
// read past the end returns 0 and latches failure, so a decoder checks ok()
// once at the end, and at the few points where a length prefix gates a
// loop. The range forms (put_bytes, Reader::bytes) copy host bytes as they
// are: floats and POD records, whose layout is little-endian on every
// supported target.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace cham::util {

template <typename Buf>
void put_u8(Buf& b, uint8_t v) {
  b.push_back(static_cast<typename Buf::value_type>(v));
}
template <typename Buf>
void put_u16(Buf& b, uint16_t v) {
  put_u8(b, static_cast<uint8_t>(v));
  put_u8(b, static_cast<uint8_t>(v >> 8));
}
template <typename Buf>
void put_u32(Buf& b, uint32_t v) {
  for (int i = 0; i < 4; ++i) put_u8(b, static_cast<uint8_t>(v >> (8 * i)));
}
template <typename Buf>
void put_u64(Buf& b, uint64_t v) {
  for (int i = 0; i < 8; ++i) put_u8(b, static_cast<uint8_t>(v >> (8 * i)));
}
template <typename Buf>
void put_i32(Buf& b, int32_t v) {
  put_u32(b, static_cast<uint32_t>(v));
}
template <typename Buf>
void put_i64(Buf& b, int64_t v) {
  put_u64(b, static_cast<uint64_t>(v));
}
// Appends the n bytes at `data`.
template <typename Buf>
void put_bytes(Buf& b, const void* data, std::size_t n) {
  const auto* s = static_cast<const typename Buf::value_type*>(data);
  b.insert(b.end(), s, s + n);
}

// Bounds-checked sequential reader over a borrowed byte span.
struct Reader {
  Reader(const void* data, std::size_t size)
      : p(static_cast<const uint8_t*>(data)), n(size) {}

  const uint8_t* p;
  std::size_t n;
  std::size_t off = 0;
  bool fail = false;

  bool ok() const { return !fail; }
  std::size_t left() const { return n - off; }
  // Every byte consumed and no read failed: decoders reject trailing bytes.
  bool done() const { return ok() && off == n; }
  bool take(std::size_t k) {
    if (left() < k) {
      fail = true;
      off = n;
      return false;
    }
    return true;
  }
  uint8_t u8() {
    if (!take(1)) return 0;
    return p[off++];
  }
  uint16_t u16() {
    if (!take(2)) return 0;
    const auto v = static_cast<uint16_t>(p[off] | (p[off + 1] << 8));
    off += 2;
    return v;
  }
  uint32_t u32() {
    if (!take(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[off + i]) << (8 * i);
    off += 4;
    return v;
  }
  uint64_t u64() {
    if (!take(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[off + i]) << (8 * i);
    off += 8;
    return v;
  }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  // Copies the next k bytes to dst; false (dst untouched) if fewer are left.
  bool bytes(void* dst, std::size_t k) {
    if (!take(k)) return false;
    if (k > 0) std::memcpy(dst, p + off, k);
    off += k;
    return true;
  }
};

}  // namespace cham::util
