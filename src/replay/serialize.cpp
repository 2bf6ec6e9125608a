#include "replay/serialize.h"

#include <vector>

#include "quant/quantize.h"

namespace cham::replay {
namespace {

constexpr uint32_t kMagic = 0x43524250;  // "CRBP"
// Slab-backed slot-store framing (save_slot_store_q / load_slot_store_q):
// one shared row shape, keys/labels table, a precision tag, then the
// latent payload as a single fp32 range. Versions 1 and 2 were retired
// ReplayBuffer framings; the loader rejects them.
constexpr uint32_t kVersionSlab = 3;
// The precision tag the *_q framings write. It is always kFp32; a payload
// tagged with any other precision is rejected.
constexpr auto kFp32Tag = static_cast<uint8_t>(quant::Precision::kFp32);

// Largest element count a decoded slab may claim.
constexpr int64_t kMaxNumel = int64_t{1} << 32;

}  // namespace

void save_slot_store_q(const SlotStore& store, ws::ByteBuf& out) {
  util::put_u32(out, kMagic);
  util::put_u32(out, kVersionSlab);
  util::put_i64(out, store.capacity());
  util::put_i64(out, store.seen());
  util::put_i64(out, store.size());
  const uint32_t rank =
      store.configured() ? static_cast<uint32_t>(store.row_shape().rank()) : 0;
  util::put_u32(out, rank);
  for (uint32_t d = 0; d < rank; ++d) {
    util::put_i64(out, store.row_shape()[d]);
  }
  for (int64_t i = 0; i < store.size(); ++i) {
    const auto& k = store.key(i);
    util::put_i32(out, k.class_id);
    util::put_i32(out, k.domain_id);
    util::put_i32(out, k.instance_id);
    util::put_u8(out, static_cast<uint8_t>(k.test));
    util::put_i64(out, store.label(i));
  }
  util::put_u8(out, kFp32Tag);
  // The whole occupied range in one append — the slab is contiguous.
  util::put_bytes(out, store.rows(),
                  static_cast<size_t>(store.size() * store.row_numel()) *
                      sizeof(float));
}

std::size_t slot_store_bytes(const SlotStore& store) {
  const std::size_t rank =
      store.configured() ? static_cast<size_t>(store.row_shape().rank()) : 0;
  const auto rows = static_cast<size_t>(store.size());
  // magic, version, capacity, seen, count, rank; the dims; per row its key
  // (three i32 and the test byte) and i64 label; the tag; the payload.
  return 4 + 4 + 8 + 8 + 8 + 4 + rank * 8 + rows * (3 * 4 + 1 + 8) + 1 +
         rows * static_cast<size_t>(store.row_numel()) * sizeof(float);
}

bool load_slot_store_q(SlotStore& store, util::Reader& r,
                       const Shape& row_shape, int64_t label_begin,
                       int64_t label_end) {
  if (r.u32() != kMagic || r.u32() != kVersionSlab) return false;
  // A store restores only into one of its own capacity: the learner's
  // capacity bounds the slab before a forged value can size it.
  const int64_t capacity = r.i64();
  if (!r.ok() || capacity <= 0 || capacity != store.capacity()) return false;
  const int64_t seen = r.i64();
  const int64_t count = r.i64();
  if (!r.ok() || count < 0 || count > capacity || seen < count) return false;
  // The rows must have the shape the store's reader gathers: a row of any
  // other size would be read past (or short of) its end by every consumer.
  // Only an empty store may carry no shape (it was never configured).
  const uint32_t rank = r.u32();
  if (!r.ok() ||
      (rank == 0 ? count > 0 : rank != static_cast<uint32_t>(row_shape.rank()))) {
    return false;
  }
  for (uint32_t d = 0; d < rank; ++d) {
    if (r.i64() != row_shape[d] || !r.ok()) return false;
  }
  // The slab holds capacity rows; its size must not overflow either.
  const int64_t row_numel = row_shape.numel();
  if (row_numel <= 0 || capacity > kMaxNumel / row_numel) return false;

  SlotStore loaded(capacity);
  struct KeyRow {
    data::ImageKey key;
    int64_t label;
  };
  // Grown one decoded row at a time: a forged count must not size an
  // allocation before the bytes behind it have been read.
  std::vector<KeyRow> table;
  for (int64_t i = 0; i < count; ++i) {
    KeyRow& k = table.emplace_back();
    k.key.class_id = r.i32();
    k.key.domain_id = r.i32();
    k.key.instance_id = r.i32();
    k.key.test = r.u8() != 0;
    k.label = r.i64();
    if (!r.ok() || k.label < label_begin || k.label >= label_end) return false;
  }
  if (r.u8() != kFp32Tag || !r.ok()) return false;
  if (count > 0) {
    std::vector<float> row(static_cast<size_t>(row_numel));
    for (int64_t i = 0; i < count; ++i) {
      if (!r.bytes(row.data(), row.size() * sizeof(float))) return false;
      const auto& k = table[static_cast<size_t>(i)];
      loaded.write(i, k.key, k.label, row_shape, row.data());
    }
  }
  store = std::move(loaded);
  store.set_seen(seen);
  return true;
}

}  // namespace cham::replay
