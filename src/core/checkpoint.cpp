#include "core/checkpoint.h"

#include <array>
#include <cstring>
#include <type_traits>
#include <vector>

#include "nn/model_io.h"
#include "replay/serialize.h"
#include "util/bytes.h"

namespace cham::core {
namespace {

constexpr uint32_t kMagic = 0x43485332;  // "CHS2"
// Version 2: single-blob full state (v1 stored only head-by-side-file,
// buffers, and no preference/RNG/staging state, so a restored learner
// diverged from an uninterrupted run at the next stochastic decision).
// Version 3: a quant::Precision byte follows the version and ST/LT/staged
// latent payloads are precision-tagged (replay::*_q framing). The tags are
// always kFp32 now; other values are rejected on load.
// Version 4: the ST store is a contiguous slab (replay::save_slot_store_q,
// one range write of the latent payload) and the staged LT burst is a list
// of (class, slot) refs into the LT store instead of deep-copied samples —
// the burst payload shrinks from h * lt_replay_per_batch latents to 8
// bytes per staged sample.
// Version 5: the LT store is one slot-store frame per class (the ST's own
// framing, one decoder for both memories) instead of a flat list of
// per-sample tensors, and the loader accepts only rows of the learner's
// latent shape and LT entries filed under their own class. A v4 blob fails
// the version check.
// Version 6: OpStats no longer carries the process-global workspace gauges
// (the ledger POD is 24 bytes shorter). A v5 blob fails the version check.
// Version 7: a u64 template hash follows the precision byte, and the head
// section stores each tensor as a byte-masked XOR against that template
// (nn::save_params_relative) instead of its raw floats. A v6 blob fails the
// version check.
constexpr uint32_t kVersion = 7;
// u32 magic, u32 version, u8 precision, u64 template hash.
constexpr std::size_t kHeaderBytes = 4 + 4 + 1 + 8;

constexpr uint32_t kDeltaMagic = 0x43485333;  // "CHS3"
// Version 2: the ops are encoded by the wire protocol's OBSERVE/PREDICT
// payload codec (data/stream.h: u32 counts, the batch domain before its
// keys) behind a u32 op count, and trailing bytes are rejected. A v1 frame
// (i64 counts, domain last) fails the version check.
constexpr uint32_t kDeltaVersion = 2;

// Op kinds in an op-log frame: each op is this byte, then the OBSERVE batch
// payload or the PREDICT key list (data/stream.h).
constexpr uint8_t kObserveOp = 0;
constexpr uint8_t kPredictOp = 1;
// The smallest op: a predict with an empty key list (kind + u32 count).
constexpr std::size_t kMinOpBytes = 5;

bool read_delta_header(util::Reader& r, DeltaHeader& out) {
  if (r.u32() != kDeltaMagic || r.u32() != kDeltaVersion ||
      r.u8() != static_cast<uint8_t>(DeltaKind::kOpLog)) {
    return false;
  }
  out.kind = DeltaKind::kOpLog;
  out.base_hash = r.u64();
  out.base_len = r.u64();
  out.next_hash = r.u64();
  out.next_len = r.u64();
  return r.ok();
}

}  // namespace

bool ChameleonLearner::save_state(ByteBuf& out) const {
  out.reserve(out.size() + state_bytes_bound());
  util::put_u32(out, kMagic);
  util::put_u32(out, kVersion);
  util::put_u8(out, static_cast<uint8_t>(quant::Precision::kFp32));
  util::put_u64(out, env_.template_hash);

  // Head parameters (values + BatchNorm running statistics), inline, as
  // byte-masked XORs against the shared template: lossless, so the
  // optimizer resumes from exactly the fp32 values it left.
  if (!nn::save_params_relative(*g_, env_.head_template, out)) return false;

  // RNG state: every stochastic decision after restore (ST slot choice,
  // LT sampling, eviction victims) must continue the exact draw sequence.
  for (uint64_t word : rng_.state()) util::put_u64(out, word);

  util::put_i64(out, step_);

  // Short-term store (contents + reservoir counter). The slab is
  // contiguous, so the fp32 latent payload is one range append.
  replay::save_slot_store_q(st_.store(), out);

  // Long-term store: one slot-store frame per class, in class order.
  lt_.save(out);

  // Staged LT burst and its consumption cursor: a learner evicted mid-burst
  // must keep consuming the same staged samples on restore. The burst is
  // (class, slot) refs into the LT store serialised just above — the load
  // restores every class's slots in place, so the refs stay valid.
  util::put_i64(out, static_cast<int64_t>(staged_refs_.size()));
  for (const auto& ref : staged_refs_) {
    util::put_i32(out, ref.cls);
    util::put_i32(out, ref.slot);
  }
  util::put_i64(out, static_cast<int64_t>(staged_pos_));

  // Preference statistics, including mid-window counters.
  prefs_.save(out);

  // Traffic ledger and the full-checks monotonicity snapshot, so restored
  // sessions keep accumulating the same hardware cost model.
  static_assert(std::is_trivially_copyable_v<OpStats>);
  util::put_bytes(out, &stats_, sizeof(stats_));
  for (const double* d : {&audited_onchip_, &audited_offchip_,
                          &audited_weight_}) {
    util::put_bytes(out, d, sizeof(double));
  }
  return true;
}

std::size_t ChameleonLearner::state_bytes_bound() const {
  // Everything after the head has an exact length: the rng words and step,
  // both stores, the staged refs between their count and cursor, the
  // preference statistics, then the ledger and its three audit totals.
  return kHeaderBytes + nn::params_relative_bound(*g_) + 4 * 8 + 8 +
         replay::slot_store_bytes(st_.store()) + lt_.saved_bytes() + 8 +
         staged_refs_.size() * 8 + 8 + prefs_.saved_bytes() +
         sizeof(OpStats) + 3 * sizeof(double);
}

bool ChameleonLearner::load_state(util::Reader& r) {
  if (r.u32() != kMagic || r.u32() != kVersion) return false;
  // Checked before anything is loaded: a blob written at a lossy
  // precision, or against another template, must leave the learner
  // untouched.
  if (r.u8() != static_cast<uint8_t>(quant::Precision::kFp32)) return false;
  if (r.u64() != env_.template_hash || !r.ok()) return false;

  // The head decodes in place from the reader's bytes.
  const std::size_t head_bytes = nn::load_params_relative(
      *g_, env_.head_template, reinterpret_cast<const char*>(r.p + r.off),
      r.left());
  if (head_bytes == 0) return false;
  r.off += head_bytes;

  std::array<uint64_t, 4> rs{};
  for (auto& word : rs) word = r.u64();
  if (!r.ok()) return false;
  rng_.set_state(rs);

  step_ = r.i64();
  if (!r.ok() || step_ < 0) return false;

  // Both memories accept only rows of the learner's latent shape, which
  // every gather downstream reads: ST labels must name a class, and an LT
  // entry must be filed under its own.
  const int64_t classes = env_.data_cfg->num_classes;
  if (!replay::load_slot_store_q(st_.store(), r, row_shape(), 0, classes)) {
    return false;
  }
  if (!lt_.load(r, row_shape())) return false;

  const int64_t staged_count = r.i64();
  if (!r.ok() || staged_count < 0 || staged_count > (int64_t{1} << 32)) {
    return false;
  }
  // Grown one decoded ref at a time: a forged count must not size an
  // allocation before the bytes behind it have been read.
  staged_refs_.clear();
  for (int64_t i = 0; i < staged_count; ++i) {
    auto& ref = staged_refs_.emplace_back();
    ref.cls = r.i32();
    ref.slot = r.i32();
    // Refs must land inside the LT store rebuilt above; a corrupt file must
    // fail the load, not produce an out-of-range gather later.
    if (!r.ok() || ref.cls < 0 || ref.cls >= classes || ref.slot < 0 ||
        ref.slot >= lt_.class_count(ref.cls)) {
      return false;
    }
  }
  const int64_t staged_pos = r.i64();
  if (!r.ok() || staged_pos < 0 || staged_pos > staged_count) return false;
  staged_pos_ = static_cast<size_t>(staged_pos);

  if (!prefs_.load(r)) return false;

  if (!r.bytes(&stats_, sizeof(stats_))) return false;
  for (double* d : {&audited_onchip_, &audited_offchip_, &audited_weight_}) {
    if (!r.bytes(d, sizeof(double))) return false;
  }
  // Exactly one blob: trailing bytes are as malformed as missing ones.
  return r.done();
}

// --------------------------------------------------------- CHS3 deltas

uint64_t blob_hash(const char* data, std::size_t n) {
  // Four interleaved FNV-1a-style lanes over 8-byte words, folded at the
  // end. The byte-serial FNV loop this replaces is a 3-cycle multiply
  // dependency chain PER BYTE (~1 GB/s) and showed up as ~14% of serve
  // wall time — each eviction hashes multi-MB blobs several times. Lanes
  // break the chain (4 independent multiplies in flight) and words cut the
  // iteration count 8x. Values differ from classic FNV-1a; that is fine —
  // the hash only cross-checks delta frames against blobs written by the
  // same store, and a frame hashed under the old scheme simply reads as
  // "stale delta", for which every consumer serves the base blob. Word
  // loads are raw memcpy (no byte-order normalisation): frames never leave
  // the host that wrote them, and every supported target is little-endian.
  constexpr uint64_t kPrime = 0x100000001B3ull;
  uint64_t h0 = 0xCBF29CE484222325ull;
  uint64_t h1 = 0x84222325CBF29CE4ull;
  uint64_t h2 = 0x9E3779B97F4A7C15ull;
  uint64_t h3 = 0xC2B2AE3D27D4EB4Full;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    uint64_t w0, w1, w2, w3;
    std::memcpy(&w0, data + i, 8);
    std::memcpy(&w1, data + i + 8, 8);
    std::memcpy(&w2, data + i + 16, 8);
    std::memcpy(&w3, data + i + 24, 8);
    h0 = (h0 ^ w0) * kPrime;
    h1 = (h1 ^ w1) * kPrime;
    h2 = (h2 ^ w2) * kPrime;
    h3 = (h3 ^ w3) * kPrime;
  }
  uint64_t h = ((h0 * kPrime ^ h1) * kPrime ^ h2) * kPrime ^ h3;
  for (; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= kPrime;
  }
  // Final avalanche so short tails still affect the high bits.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return h;
}

bool is_delta_blob(const char* data, std::size_t n) {
  util::Reader r(data, n);
  return r.u32() == kDeltaMagic && r.ok();
}

bool read_delta_header(const char* data, std::size_t n, DeltaHeader& out) {
  util::Reader r(data, n);
  return read_delta_header(r, out);
}

ByteBuf encode_op_log(const DeltaHeader& header,
                      const std::vector<data::ServeOp>& ops) {
  ByteBuf out;
  util::put_u32(out, kDeltaMagic);
  util::put_u32(out, kDeltaVersion);
  util::put_u8(out, static_cast<uint8_t>(header.kind));
  util::put_u64(out, header.base_hash);
  util::put_u64(out, header.base_len);
  util::put_u64(out, header.next_hash);
  util::put_u64(out, header.next_len);
  util::put_u32(out, static_cast<uint32_t>(ops.size()));
  for (const data::ServeOp& op : ops) {
    if (op.predict) {
      util::put_u8(out, kPredictOp);
      data::put_keys(out, op.keys);
    } else {
      util::put_u8(out, kObserveOp);
      data::put_batch(out, op.batch);
    }
  }
  return out;
}

bool read_op_log(const char* delta, std::size_t delta_n,
                 std::vector<data::ServeOp>& out) {
  util::Reader r(delta, delta_n);
  DeltaHeader h;
  if (!read_delta_header(r, h)) return false;
  const uint32_t count = r.u32();
  if (!r.ok() || r.left() / kMinOpBytes < count) return false;
  out.clear();
  out.resize(count);
  for (data::ServeOp& op : out) {
    const uint8_t kind = r.u8();
    op.predict = kind == kPredictOp;
    if (op.predict) {
      if (!data::get_keys(r, op.keys)) return false;
    } else if (kind != kObserveOp || !data::get_batch(r, op.batch)) {
      return false;
    }
  }
  return r.done();
}

}  // namespace cham::core
