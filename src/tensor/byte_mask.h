// Byte-mask XOR codec: the encoding of head tensors in session blobs
// (core/checkpoint.h, CHS2 v7).
//
// A session's head starts as a clone of the shared pretrained template and
// training moves its floats only part of the way from there: the bytes of
// a trained tensor XOR the template's are zero in about a sixth of the
// words, and the high byte of a word is zero in almost all of them. The
// codec stores only the non-zero bytes of cur XOR base.
//
// Format: the n input bytes in 64-byte blocks, each block a little-endian
// u64 mask with bit i set when XOR byte i is non-zero, followed by those
// bytes in order. The last block covers the n % 64 bytes left, and its mask
// has no bit at or past them. n = 0 encodes to nothing.
//
// Two paths write the same bytes: an AVX-512 BW+VBMI2 one (vpcompressb /
// vpexpandb, one block per iteration), built under CHAM_SIMD=auto when the
// target defines __AVX512VBMI2__, and the scalar one in cham::bytemask::ref
// that every build compiles and the tests use as the oracle.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cham::bytemask {

constexpr std::size_t kBlockBytes = 64;

// The longest encoding of n bytes: every byte non-zero, plus one mask per
// block.
constexpr std::size_t encoded_bound(std::size_t n) {
  return n + 8 * ((n + kBlockBytes - 1) / kBlockBytes);
}

// decode's answer for input it refuses.
constexpr std::size_t kMalformed = ~std::size_t{0};

// Writes the encoding of `cur` XOR `base` (n bytes each; a null base reads
// as zeros) to `out`, which holds encoded_bound(n) bytes. Returns the bytes
// written.
std::size_t encode(const void* cur, const void* base, std::size_t n,
                   char* out);

// Decodes an encoding of n bytes from in[0, in_n) and writes `base` XOR the
// decoded bytes to `out` (a null base reads as zeros). Returns the bytes
// consumed, or kMalformed when a mask or its bytes run past in_n, a mask
// bit lies past the n bytes, or a masked byte is zero. The encoder never
// writes a zero byte, so every input accepted re-encodes to itself. On
// kMalformed, `out` holds an unspecified prefix of the result.
std::size_t decode(const char* in, std::size_t in_n, const void* base,
                   std::size_t n, void* out);

// True when encode/decode run the AVX-512 VBMI2 path.
bool simd();

namespace ref {

// The scalar path, byte for byte the same output as the dispatching
// functions above.
std::size_t encode(const void* cur, const void* base, std::size_t n,
                   char* out);
std::size_t decode(const char* in, std::size_t in_n, const void* base,
                   std::size_t n, void* out);

}  // namespace ref

}  // namespace cham::bytemask
