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

void write_tensor(std::ostream& os, const Tensor& t) {
  const uint32_t rank = static_cast<uint32_t>(t.rank());
  write_pod(os, rank);
  for (int64_t d = 0; d < t.rank(); ++d) {
    write_pod(os, static_cast<int64_t>(t.dim(d)));
  }
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(t.numel() * sizeof(float)));
}

// Largest element count a decoded tensor or slab row may claim.
constexpr int64_t kMaxNumel = int64_t{1} << 32;

// Reads rank + dims from untrusted bytes: rank at most Shape::kMaxRank, each
// dim in [min_dim, kMaxNumel], and the running product checked before each
// multiply so it can neither overflow nor exceed kMaxNumel.
bool read_dims(std::istream& is, std::vector<int64_t>& dims, int64_t min_dim,
               int64_t& numel) {
  uint32_t rank = 0;
  if (!read_pod(is, rank) || rank > Shape::kMaxRank) return false;
  dims.resize(rank);
  numel = 1;
  for (auto& d : dims) {
    if (!read_pod(is, d) || d < min_dim || d > kMaxNumel) return false;
    if (d > 0 && numel > kMaxNumel / d) return false;
    numel *= d;
  }
  return true;
}

bool read_tensor(std::istream& is, Tensor& t) {
  std::vector<int64_t> dims;
  int64_t numel = 0;
  if (!read_dims(is, dims, /*min_dim=*/0, numel)) return false;
  t = Tensor(Shape(std::move(dims)));
  is.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(numel * sizeof(float)));
  return is.good();
}

// Precision-tagged tensor payload: the kFp32 tag byte, then rank + dims +
// payload.
void write_tensor_q(std::ostream& os, const Tensor& t) {
  write_pod(os, kFp32Tag);
  write_tensor(os, t);
}

bool read_tensor_q(std::istream& is, Tensor& t) {
  uint8_t tag = 0;
  return read_pod(is, tag) && tag == kFp32Tag && read_tensor(is, t);
}

bool write_sample(const ReplaySample& sample, std::ostream& os) {
  write_pod(os, sample.key.class_id);
  write_pod(os, sample.key.domain_id);
  write_pod(os, sample.key.instance_id);
  write_pod(os, static_cast<uint8_t>(sample.key.test));
  write_pod(os, sample.label);
  // Note: a default Tensor has rank-0 shape with numel() == 1 (empty
  // product) but no storage — empty() is the authoritative check.
  const uint8_t has_latent = !sample.latent.empty();
  const uint8_t has_logits = !sample.logits.empty();
  write_pod(os, has_latent);
  write_pod(os, has_logits);
  if (has_latent) write_tensor_q(os, sample.latent);
  if (has_logits) write_tensor_q(os, sample.logits);
  return os.good();
}

bool read_sample(ReplaySample& sample, std::istream& is) {
  uint8_t test = 0, has_latent = 0, has_logits = 0;
  if (!read_pod(is, sample.key.class_id)) return false;
  if (!read_pod(is, sample.key.domain_id)) return false;
  if (!read_pod(is, sample.key.instance_id)) return false;
  if (!read_pod(is, test)) return false;
  sample.key.test = test != 0;
  if (!read_pod(is, sample.label)) return false;
  if (!read_pod(is, has_latent)) return false;
  if (!read_pod(is, has_logits)) return false;
  if (has_latent && !read_tensor_q(is, sample.latent)) return false;
  if (has_logits && !read_tensor_q(is, sample.logits)) return false;
  return true;
}

}  // namespace

bool save_samples_q(const std::vector<ReplaySample>& samples,
                    std::ostream& os) {
  write_pod(os, static_cast<int64_t>(samples.size()));
  for (const auto& s : samples) {
    if (!write_sample(s, os)) return false;
  }
  return os.good();
}

bool load_samples_q(std::vector<ReplaySample>& samples, std::istream& is) {
  int64_t count = 0;
  if (!read_pod(is, count) || count < 0 || count > kMaxNumel) return false;
  // Grown one decoded sample at a time: a forged count must not size an
  // allocation before the bytes behind it have been read.
  samples.clear();
  for (int64_t i = 0; i < count; ++i) {
    if (!read_sample(samples.emplace_back(), is)) return false;
  }
  return true;
}

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

bool load_slot_store_q(SlotStore& store, std::istream& is) {
  uint32_t magic = 0, version = 0;
  int64_t capacity = 0, seen = 0, count = 0;
  if (!read_pod(is, magic) || magic != kMagic) return false;
  if (!read_pod(is, version) || version != kVersionSlab) return false;
  // A store restores only into one of its own capacity: the learner's ST
  // capacity bounds the slab before a forged value can size it.
  if (!read_pod(is, capacity) || capacity <= 0 ||
      capacity != store.capacity()) {
    return false;
  }
  if (!read_pod(is, seen) || seen < 0) return false;
  if (!read_pod(is, count) || count < 0 || count > capacity) return false;
  std::vector<int64_t> dims;
  int64_t row_numel = 0;
  if (!read_dims(is, dims, /*min_dim=*/1, row_numel)) return false;
  if (count > 0 && dims.empty()) return false;
  // The slab holds capacity rows; its size must not overflow either.
  if (capacity > kMaxNumel / row_numel) return false;

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
    if (!read_pod(is, r.label) || r.label < 0) return false;
  }
  uint8_t tag = 0;
  if (!read_pod(is, tag) || tag != kFp32Tag) return false;
  if (count > 0) {
    Tensor row_scratch(Shape{std::span<const int64_t>(dims)});
    Rng fill_rng(0);  // store below capacity: appends, rng unused
    for (int64_t i = 0; i < count; ++i) {
      is.read(reinterpret_cast<char*>(row_scratch.data()),
              static_cast<std::streamsize>(row_numel * sizeof(float)));
      if (!is.good()) return false;
      const auto& r = table[static_cast<size_t>(i)];
      loaded.random_replace_add(r.key, r.label, row_scratch, fill_rng);
    }
  }
  store = std::move(loaded);
  store.set_seen(seen);
  return true;
}

}  // namespace cham::replay
