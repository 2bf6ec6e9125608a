#include "core/checkpoint.h"

#include <array>
#include <cstring>
#include <fstream>
#include <type_traits>
#include <vector>

#include "nn/model_io.h"
#include "replay/serialize.h"
#include "util/check.h"

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
constexpr uint32_t kVersion = 4;

constexpr uint32_t kDeltaMagic = 0x43485333;  // "CHS3"
constexpr uint32_t kDeltaVersion = 1;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool read_pod(std::istream& is, T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  return is.good();
}

// Raw-buffer cursor for the delta frames (they are always encoded into and
// decoded from complete in-memory blobs, so stream machinery is overhead).
struct Cursor {
  const char* p;
  size_t left;

  template <typename T>
  bool read(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (left < sizeof(T)) return false;
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    left -= sizeof(T);
    return true;
  }
};

template <typename T>
void append_pod(ByteBuf& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const char* p = reinterpret_cast<const char*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

void append_delta_header(ByteBuf& out, const DeltaHeader& h) {
  append_pod(out, kDeltaMagic);
  append_pod(out, kDeltaVersion);
  append_pod(out, static_cast<uint8_t>(h.kind));
  append_pod(out, h.base_hash);
  append_pod(out, h.base_len);
  append_pod(out, h.next_hash);
  append_pod(out, h.next_len);
}

bool read_delta_header(Cursor& c, DeltaHeader& out) {
  uint32_t magic = 0, version = 0;
  uint8_t kind = 0;
  if (!c.read(magic) || magic != kDeltaMagic) return false;
  if (!c.read(version) || version != kDeltaVersion) return false;
  if (!c.read(kind) || kind != static_cast<uint8_t>(DeltaKind::kOpLog)) {
    return false;
  }
  out.kind = static_cast<DeltaKind>(kind);
  return c.read(out.base_hash) && c.read(out.base_len) &&
         c.read(out.next_hash) && c.read(out.next_len);
}

}  // namespace

bool ChameleonLearner::save_state(std::ostream& os) const {
  write_pod(os, kMagic);
  write_pod(os, kVersion);
  write_pod(os, static_cast<uint8_t>(quant::Precision::kFp32));

  // Head parameters (values + BatchNorm running statistics), inline.
  // Always fp32: this is live training state (weights + BN statistics), and
  // the optimizer must resume from exactly the values it left.
  if (!nn::save_params(*g_, os)) return false;

  // RNG state: every stochastic decision after restore (ST slot choice,
  // LT sampling, eviction victims) must continue the exact draw sequence.
  const auto rs = rng_.state();
  for (uint64_t word : rs) write_pod(os, word);

  write_pod(os, step_);

  // Short-term store (contents + reservoir counter). The slab is
  // contiguous, so the fp32 latent payload is one range write.
  if (!replay::save_slot_store_q(st_.store(), os)) return false;

  // Long-term store: flat sample list in (class, slot) order; re-inserting
  // in this order rebuilds the per-class slot arrays identically.
  if (!replay::save_samples_q(lt_.all_samples(), os)) return false;

  // Staged LT burst and its consumption cursor: a learner evicted mid-burst
  // must keep consuming the same staged samples on restore. The burst is
  // (class, slot) refs into the LT store serialised just above — the LT
  // rebuild on load recreates the slots in the same order, so the refs stay
  // valid.
  write_pod(os, static_cast<int64_t>(staged_refs_.size()));
  for (const auto& ref : staged_refs_) {
    write_pod(os, ref.cls);
    write_pod(os, ref.slot);
  }
  write_pod(os, static_cast<int64_t>(staged_pos_));

  // Preference statistics, including mid-window counters.
  if (!prefs_.save(os)) return false;

  // Traffic ledger and the full-checks monotonicity snapshot, so restored
  // sessions keep accumulating the same hardware cost model. The host
  // workspace gauges (ws_*) are process-global introspection, not logical
  // learner state — they vary with allocator history, so they are
  // canonicalised to zero to keep serialisation a pure function of the
  // stream (the op-log delta restore hash-verifies exactly this). The next
  // observe() after restore re-mirrors the live gauges.
  static_assert(std::is_trivially_copyable_v<OpStats>);
  OpStats canonical = stats_;
  canonical.ws_pool_heap_allocs = 0;
  canonical.ws_pool_high_water_bytes = 0;
  canonical.ws_arena_high_water_bytes = 0;
  write_pod(os, canonical);
  write_pod(os, audited_onchip_);
  write_pod(os, audited_offchip_);
  write_pod(os, audited_weight_);
  return os.good();
}

bool ChameleonLearner::load_state(std::istream& is) {
  uint32_t magic = 0, version = 0;
  if (!read_pod(is, magic) || magic != kMagic) return false;
  if (!read_pod(is, version) || version != kVersion) return false;
  // Checked before anything is loaded: a blob written at a lossy
  // precision must leave the learner untouched.
  uint8_t precision = 0;
  if (!read_pod(is, precision) ||
      precision != static_cast<uint8_t>(quant::Precision::kFp32)) {
    return false;
  }

  if (!nn::load_params(*g_, is)) return false;

  std::array<uint64_t, 4> rs{};
  for (auto& word : rs) {
    if (!read_pod(is, word)) return false;
  }
  rng_.set_state(rs);

  if (!read_pod(is, step_) || step_ < 0) return false;

  if (!replay::load_slot_store_q(st_.store(), is)) return false;

  std::vector<replay::ReplaySample> lt_samples;
  if (!replay::load_samples_q(lt_samples, is)) return false;
  lt_.clear();
  Rng restore_rng(0xC0FFEE);  // below-quota inserts never hit the rng path
  for (const auto& s : lt_samples) {
    // Validate before insert: LongTermMemory contracts on the label range,
    // and a corrupt file must fail the load, not trip a CHAM_CHECK.
    if (s.label < 0 || s.label >= env_.data_cfg->num_classes) return false;
    lt_.insert(s, restore_rng);
  }

  int64_t staged_count = 0;
  if (!read_pod(is, staged_count) || staged_count < 0 ||
      staged_count > (int64_t{1} << 32)) {
    return false;
  }
  // Grown one decoded ref at a time: a forged count must not size an
  // allocation before the bytes behind it have been read.
  staged_refs_.clear();
  for (int64_t i = 0; i < staged_count; ++i) {
    auto& ref = staged_refs_.emplace_back();
    if (!read_pod(is, ref.cls) || !read_pod(is, ref.slot)) return false;
    // Refs must land inside the LT store rebuilt above; a corrupt file must
    // fail the load, not produce an out-of-range gather later.
    if (ref.cls < 0 || ref.cls >= env_.data_cfg->num_classes ||
        ref.slot < 0 || ref.slot >= lt_.class_count(ref.cls)) {
      return false;
    }
  }
  int64_t staged_pos = 0;
  if (!read_pod(is, staged_pos) || staged_pos < 0 ||
      staged_pos > staged_count) {
    return false;
  }
  staged_pos_ = static_cast<size_t>(staged_pos);

  if (!prefs_.load(is)) return false;

  if (!read_pod(is, stats_)) return false;
  return read_pod(is, audited_onchip_) && read_pod(is, audited_offchip_) &&
         read_pod(is, audited_weight_);
}

bool save_checkpoint(const ChameleonLearner& learner,
                     const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  return os && learner.save_state(os);
}

bool load_checkpoint(ChameleonLearner& learner, const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return is && learner.load_state(is);
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
  uint32_t magic = 0;
  if (n < sizeof(magic)) return false;
  std::memcpy(&magic, data, sizeof(magic));
  return magic == kDeltaMagic;
}

bool read_delta_header(const char* data, std::size_t n, DeltaHeader& out) {
  Cursor c{data, n};
  return read_delta_header(c, out);
}

ByteBuf encode_op_log(const DeltaHeader& header,
                      const std::vector<data::ServeOp>& ops) {
  ByteBuf out;
  append_delta_header(out, header);
  ByteBufWriter os(out);
  const bool ok = data::save_ops(ops, os);
  CHAM_CHECK(ok, "encode_op_log: op serialisation failed");
  return out;
}

bool read_op_log(const char* delta, std::size_t delta_n,
                 std::vector<data::ServeOp>& out) {
  Cursor c{delta, delta_n};
  DeltaHeader h;
  if (!read_delta_header(c, h)) return false;
  ByteBufReader is(c.p, c.left);
  return data::load_ops(out, is);
}

}  // namespace cham::core
