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

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool read_pod(std::istream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  return is.good();
}

// Largest element count a decoded slab may claim.
constexpr int64_t kMaxNumel = int64_t{1} << 32;

}  // namespace

bool save_slot_store_q(const SlotStore& store, std::ostream& os) {
  write_pod(os, kMagic);
  write_pod(os, kVersionSlab);
  write_pod(os, static_cast<int64_t>(store.capacity()));
  write_pod(os, static_cast<int64_t>(store.seen()));
  write_pod(os, static_cast<int64_t>(store.size()));
  const uint32_t rank =
      store.configured() ? static_cast<uint32_t>(store.row_shape().rank()) : 0;
  write_pod(os, rank);
  for (uint32_t d = 0; d < rank; ++d) {
    write_pod(os, static_cast<int64_t>(store.row_shape()[d]));
  }
  for (int64_t i = 0; i < store.size(); ++i) {
    const auto& k = store.key(i);
    write_pod(os, k.class_id);
    write_pod(os, k.domain_id);
    write_pod(os, k.instance_id);
    write_pod(os, static_cast<uint8_t>(k.test));
    write_pod(os, static_cast<int64_t>(store.label(i)));
  }
  write_pod(os, kFp32Tag);
  if (store.size() == 0) return os.good();
  // The whole occupied range in one write — the slab is contiguous.
  os.write(reinterpret_cast<const char*>(store.rows()),
           static_cast<std::streamsize>(store.size() * store.row_numel() *
                                        sizeof(float)));
  return os.good();
}

bool load_slot_store_q(SlotStore& store, std::istream& is,
                       const Shape& row_shape, int64_t label_begin,
                       int64_t label_end) {
  uint32_t magic = 0, version = 0, rank = 0;
  int64_t capacity = 0, seen = 0, count = 0;
  if (!read_pod(is, magic) || magic != kMagic) return false;
  if (!read_pod(is, version) || version != kVersionSlab) return false;
  // A store restores only into one of its own capacity: the learner's
  // capacity bounds the slab before a forged value can size it.
  if (!read_pod(is, capacity) || capacity <= 0 ||
      capacity != store.capacity()) {
    return false;
  }
  if (!read_pod(is, seen) || !read_pod(is, count)) return false;
  if (count < 0 || count > capacity || seen < count) return false;
  // The rows must have the shape the store's reader gathers: a row of any
  // other size would be read past (or short of) its end by every consumer.
  // Only an empty store may carry no shape (it was never configured).
  if (!read_pod(is, rank)) return false;
  if (rank == 0 ? count > 0 : rank != static_cast<uint32_t>(row_shape.rank())) {
    return false;
  }
  for (uint32_t d = 0; d < rank; ++d) {
    int64_t dim = 0;
    if (!read_pod(is, dim) || dim != row_shape[d]) return false;
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
    KeyRow& r = table.emplace_back();
    uint8_t test = 0;
    if (!read_pod(is, r.key.class_id)) return false;
    if (!read_pod(is, r.key.domain_id)) return false;
    if (!read_pod(is, r.key.instance_id)) return false;
    if (!read_pod(is, test)) return false;
    r.key.test = test != 0;
    if (!read_pod(is, r.label) || r.label < label_begin ||
        r.label >= label_end) {
      return false;
    }
  }
  uint8_t tag = 0;
  if (!read_pod(is, tag) || tag != kFp32Tag) return false;
  if (count > 0) {
    std::vector<float> row(static_cast<size_t>(row_numel));
    for (int64_t i = 0; i < count; ++i) {
      is.read(reinterpret_cast<char*>(row.data()),
              static_cast<std::streamsize>(row_numel * sizeof(float)));
      if (!is.good()) return false;
      const auto& r = table[static_cast<size_t>(i)];
      loaded.write(i, r.key, r.label, row_shape, row.data());
    }
  }
  store = std::move(loaded);
  store.set_seen(seen);
  return true;
}

}  // namespace cham::replay
