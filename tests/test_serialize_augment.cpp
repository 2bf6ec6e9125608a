// Learner-state slot-store framing (round-trips, malformed and crafted
// input).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "quant/quantize.h"
#include "replay/serialize.h"
#include "tensor/ops.h"
#include "util/bytes.h"

namespace cham {
namespace {

const Shape kRow{{1, 4, 2, 2}};

// A slot store of `capacity` holding one random row per label.
replay::SlotStore make_store(int64_t capacity,
                             const std::vector<int64_t>& labels) {
  replay::SlotStore store(capacity);
  Rng rng(static_cast<uint64_t>(capacity));
  for (int64_t label : labels) {
    Tensor latent(kRow);
    ops::fill_normal(latent, rng, 0.0f, 1.0f);
    store.random_replace_add({static_cast<int32_t>(label), 2, 5, false},
                             label, latent, rng);
  }
  return store;
}

// Decodes one slot-store frame from the front of `bytes` into `store`.
bool load_frame(replay::SlotStore& store, const std::string& bytes,
                const Shape& row_shape, int64_t label_end = 10) {
  util::Reader r(bytes.data(), bytes.size());
  return replay::load_slot_store_q(store, r, row_shape, 0, label_end);
}

std::string frame_of(const replay::SlotStore& s) {
  ws::ByteBuf frame;
  replay::save_slot_store_q(s, frame);
  EXPECT_EQ(frame.size(), replay::slot_store_bytes(s));
  return std::string(frame.data(), frame.size());
}

// One store through the slot-store framing of CHS2 learner blobs.
replay::SlotStore round_trip(const replay::SlotStore& s) {
  replay::SlotStore back(s.capacity());
  EXPECT_TRUE(load_frame(back, frame_of(s), kRow));
  return back;
}

TEST(Serialize, SampleRoundTrip) {
  // Replacement past capacity leaves seen above size; both survive.
  const replay::SlotStore s = make_store(3, {7, 1, 4, 2});
  const replay::SlotStore back = round_trip(s);
  ASSERT_EQ(back.size(), 3);
  EXPECT_EQ(back.seen(), 4);
  EXPECT_EQ(back.row_shape(), kRow);
  for (int64_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(back.key(i), s.key(i));
    EXPECT_EQ(back.label(i), s.label(i));
    EXPECT_EQ(std::memcmp(back.row(i), s.row(i),
                          static_cast<size_t>(kRow.numel()) * sizeof(float)),
              0);
  }
}

TEST(Serialize, EmptySlotStoreRoundTrip) {
  // A store that never took a row has no row shape; it loads as empty.
  const replay::SlotStore back = round_trip(replay::SlotStore(4));
  EXPECT_EQ(back.size(), 0);
  EXPECT_FALSE(back.configured());
}

TEST(Serialize, RejectsGarbage) {
  replay::SlotStore store(4);
  EXPECT_FALSE(load_frame(store, "not a slot store at all", kRow));
  EXPECT_FALSE(load_frame(store, "", kRow));
}

TEST(Serialize, RejectsTruncated) {
  std::string data = frame_of(make_store(4, {1, 2}));
  data.resize(data.size() / 2);
  replay::SlotStore back(4);
  EXPECT_FALSE(load_frame(back, data, kRow));
}

// ------------------------------------------- decoder bounds (crafted bytes)
//
// Blobs come from disk or a peer, so the decoders must refuse a rank the
// tensor type cannot hold and dims whose product overflows, returning false
// instead of throwing or handing back a tensor without storage.

template <typename T>
void put(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

constexpr auto kFp32Tag = static_cast<uint8_t>(quant::Precision::kFp32);
constexpr int64_t k2Pow32 = int64_t{1} << 32;

// Slot-store framing (version 3) up to and including the row shape.
std::string slot_store_header(int64_t capacity, int64_t count,
                              const std::vector<int64_t>& dims) {
  std::string b;
  put<uint32_t>(b, 0x43524250);                      // "CRBP"
  put<uint32_t>(b, 3);                               // version
  put<int64_t>(b, capacity);
  put<int64_t>(b, count);                            // seen
  put<int64_t>(b, count);
  put<uint32_t>(b, static_cast<uint32_t>(dims.size()));
  for (int64_t d : dims) put<int64_t>(b, d);
  return b;
}

// A one-slot slot store whose row shape is `dims`, followed by `payload`
// floats.
std::string crafted_slot_store(const std::vector<int64_t>& dims,
                               int64_t payload, int64_t capacity = 4) {
  std::string b = slot_store_header(capacity, 1, dims);
  put<int32_t>(b, 3);                                // class_id
  put<int32_t>(b, 0);                                // domain_id
  put<int32_t>(b, 0);                                // instance_id
  put<uint8_t>(b, 0);                                // test
  put<int64_t>(b, 3);                                // label
  put<uint8_t>(b, kFp32Tag);
  for (int64_t i = 0; i < payload; ++i) put<float>(b, 1.0f);
  return b;
}

// Loads into a store of the capacity the frame declares (after the u32
// magic and u32 version) expecting rows of `row_shape` with labels in
// [0, 10): a store loads only into one of its own capacity
// (CheckpointSuite.ForgedStCapacityWithOneRealRowIsRejected), and the
// rejections below must be due to the field under test.
bool load_store(const std::string& bytes,
                const Shape& row_shape = Shape{{1, 2}}) {
  int64_t capacity = 0;
  std::memcpy(&capacity, bytes.data() + 8, sizeof(capacity));
  replay::SlotStore store(capacity);
  return load_frame(store, bytes, row_shape);
}

const std::vector<int64_t> kRank7 = {1, 1, 1, 1, 1, 1, 1};
const std::vector<int64_t> kOverflowDims = {k2Pow32, k2Pow32};

TEST(Serialize, CraftedInputsAreWellFormedControls) {
  // The same framing with the expected shape and a label in range loads,
  // so the rejections below are due to the field under test alone.
  EXPECT_TRUE(load_store(crafted_slot_store({1, 2}, 2)));
}

TEST(Serialize, SlotStoreRejectsRankAboveShapeMax) {
  EXPECT_NO_THROW(EXPECT_FALSE(load_store(crafted_slot_store(kRank7, 1))));
}

TEST(Serialize, SlotStoreRejectsOverflowingDims) {
  EXPECT_NO_THROW(
      EXPECT_FALSE(load_store(crafted_slot_store(kOverflowDims, 0))));
}

TEST(Serialize, SlotStoreRejectsForgedCountWithoutPayload) {
  // Capacity and count forged to 2^32 one-float rows (a slab within
  // bounds) with no key rows behind them: the loader must run out of
  // bytes, not size an allocation from the forged count.
  EXPECT_NO_THROW(EXPECT_FALSE(
      load_store(slot_store_header(k2Pow32, k2Pow32, {1}), Shape{{1}})));
}

TEST(Serialize, SlotStoreRejectsForeignRowShape) {
  // A well-formed row of another shape than the reader gathers, including
  // one of the same element count.
  EXPECT_NO_THROW(EXPECT_FALSE(load_store(crafted_slot_store({1, 3}, 3))));
  EXPECT_NO_THROW(EXPECT_FALSE(load_store(crafted_slot_store({2, 1}, 2))));
  EXPECT_NO_THROW(EXPECT_FALSE(load_store(crafted_slot_store({2}, 2))));
}

TEST(Serialize, SlotStoreRejectsLabelOutOfRange) {
  // The crafted row is labelled 3; the loader is told to accept only 0.
  replay::SlotStore store(4);
  EXPECT_NO_THROW(EXPECT_FALSE(
      load_frame(store, crafted_slot_store({1, 2}, 2), Shape{{1, 2}}, 1)));
}

TEST(Serialize, SlotStoreRejectsSeenBelowCount) {
  std::string b = crafted_slot_store({1, 2}, 2);
  // Frame: u32 magic, u32 version, i64 capacity, then the i64 seen.
  const int64_t seen = 0;
  std::memcpy(b.data() + 16, &seen, sizeof(seen));
  EXPECT_NO_THROW(EXPECT_FALSE(load_store(b)));
}

TEST(Serialize, SlotStoreRejectsCapacityOverflowingTheSlab) {
  // One well-formed row, but capacity x row size overflows the slab the
  // first insert allocates.
  EXPECT_NO_THROW(EXPECT_FALSE(
      load_store(crafted_slot_store({1, 2}, 2, int64_t{1} << 62))));
}

}  // namespace
}  // namespace cham
