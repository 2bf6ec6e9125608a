// Learner-state sample/slot framing (round-trips, malformed and crafted
// input) and image augmentations.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "data/augment.h"
#include "quant/quantize.h"
#include "replay/serialize.h"
#include "tensor/ops.h"

namespace cham {
namespace {

replay::ReplaySample make_sample(int64_t label, uint64_t seed) {
  replay::ReplaySample s;
  s.key = {static_cast<int32_t>(label), 2, 5, false};
  s.label = label;
  s.latent = Tensor({1, 4, 2, 2});
  Rng rng(seed);
  ops::fill_normal(s.latent, rng, 0.0f, 1.0f);
  return s;
}

// One sample through the sample-list framing of CHS2 learner blobs.
replay::ReplaySample round_trip(const replay::ReplaySample& s) {
  std::stringstream ss;
  EXPECT_TRUE(replay::save_samples_q({s}, ss));
  std::vector<replay::ReplaySample> back;
  EXPECT_TRUE(replay::load_samples_q(back, ss));
  EXPECT_EQ(back.size(), 1u);
  return back.empty() ? replay::ReplaySample{} : back.front();
}

TEST(Serialize, SampleRoundTrip) {
  replay::ReplaySample s = make_sample(7, 1);
  s.logits = Tensor::from({0.1f, 0.9f, -0.5f});
  const replay::ReplaySample back = round_trip(s);
  EXPECT_EQ(back.key, s.key);
  EXPECT_EQ(back.label, 7);
  EXPECT_EQ(ops::max_abs_diff(back.latent, s.latent), 0.0);
  EXPECT_EQ(ops::max_abs_diff(back.logits, s.logits), 0.0);
}

TEST(Serialize, SampleWithoutPayloadsRoundTrip) {
  replay::ReplaySample s;
  s.key = {1, 2, 3, true};
  s.label = 1;
  const replay::ReplaySample back = round_trip(s);
  EXPECT_EQ(back.key, s.key);
  EXPECT_TRUE(back.latent.empty());
  EXPECT_TRUE(back.logits.empty());
}

TEST(Serialize, RejectsGarbage) {
  std::stringstream ss;
  ss << "not a sample list at all";
  std::vector<replay::ReplaySample> samples;
  EXPECT_FALSE(replay::load_samples_q(samples, ss));
  std::stringstream empty;
  EXPECT_FALSE(replay::load_samples_q(samples, empty));
}

TEST(Serialize, RejectsTruncated) {
  std::stringstream ss;
  ASSERT_TRUE(replay::save_samples_q({make_sample(1, 10), make_sample(2, 11)},
                                     ss));
  std::string data = ss.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  std::vector<replay::ReplaySample> back;
  EXPECT_FALSE(replay::load_samples_q(back, truncated));
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

// A one-sample list whose latent claims `dims`, followed by `payload`
// floats.
std::string crafted_sample_list(const std::vector<int64_t>& dims,
                                int64_t payload) {
  std::string b;
  put<int64_t>(b, 1);                                // count
  put<int32_t>(b, 3);                                // class_id
  put<int32_t>(b, 0);                                // domain_id
  put<int32_t>(b, 0);                                // instance_id
  put<uint8_t>(b, 0);                                // test
  put<int64_t>(b, 3);                                // label
  put<uint8_t>(b, 1);                                // has_latent
  put<uint8_t>(b, 0);                                // has_logits
  put<uint8_t>(b, kFp32Tag);
  put<uint32_t>(b, static_cast<uint32_t>(dims.size()));
  for (int64_t d : dims) put<int64_t>(b, d);
  for (int64_t i = 0; i < payload; ++i) put<float>(b, 1.0f);
  return b;
}

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

bool load_list(const std::string& bytes) {
  std::stringstream ss(bytes);
  std::vector<replay::ReplaySample> samples;
  return replay::load_samples_q(samples, ss);
}

bool load_store(const std::string& bytes) {
  std::stringstream ss(bytes);
  replay::SlotStore store(1);
  return replay::load_slot_store_q(store, ss);
}

const std::vector<int64_t> kRank7 = {1, 1, 1, 1, 1, 1, 1};
const std::vector<int64_t> kOverflowDims = {k2Pow32, k2Pow32};

TEST(Serialize, CraftedInputsAreWellFormedControls) {
  // The same framing with a legal shape loads, so the rejections below are
  // due to the shape alone.
  EXPECT_TRUE(load_list(crafted_sample_list({1, 2}, 2)));
  EXPECT_TRUE(load_store(crafted_slot_store({1, 2}, 2)));
}

TEST(Serialize, SampleListRejectsRankAboveShapeMax) {
  EXPECT_NO_THROW(EXPECT_FALSE(load_list(crafted_sample_list(kRank7, 1))));
}

TEST(Serialize, SampleListRejectsOverflowingDims) {
  EXPECT_NO_THROW(
      EXPECT_FALSE(load_list(crafted_sample_list(kOverflowDims, 0))));
}

TEST(Serialize, SlotStoreRejectsRankAboveShapeMax) {
  EXPECT_NO_THROW(EXPECT_FALSE(load_store(crafted_slot_store(kRank7, 1))));
}

TEST(Serialize, SlotStoreRejectsOverflowingDims) {
  EXPECT_NO_THROW(
      EXPECT_FALSE(load_store(crafted_slot_store(kOverflowDims, 0))));
}

TEST(Serialize, SampleListRejectsForgedCountWithoutPayload) {
  // A count at the format's limit with no samples behind it: the loader
  // must run out of bytes, not size an allocation from the forged count.
  std::string b;
  put<int64_t>(b, k2Pow32);
  EXPECT_NO_THROW(EXPECT_FALSE(load_list(b)));
}

TEST(Serialize, SlotStoreRejectsForgedCountWithoutPayload) {
  // The same for the slot store's key table: capacity and count forged to
  // 2^32 one-float rows (a slab within bounds), no key rows behind them.
  EXPECT_NO_THROW(
      EXPECT_FALSE(load_store(slot_store_header(k2Pow32, k2Pow32, {1}))));
}

TEST(Serialize, SlotStoreRejectsCapacityOverflowingTheSlab) {
  // One well-formed row, but capacity x row size overflows the slab the
  // first insert allocates.
  EXPECT_NO_THROW(EXPECT_FALSE(
      load_store(crafted_slot_store({1, 2}, 2, int64_t{1} << 62))));
}

// ---------------------------------------------------------- augmentations

Tensor test_image() {
  Tensor img({3, 8, 8});
  for (int64_t i = 0; i < img.numel(); ++i) {
    img[i] = static_cast<float>(i % 64) / 64.0f;
  }
  return img;
}

TEST(Augment, HflipIsInvolution) {
  const Tensor img = test_image();
  EXPECT_EQ(ops::max_abs_diff(data::hflip(data::hflip(img)), img), 0.0);
  EXPECT_GT(ops::max_abs_diff(data::hflip(img), img), 0.0);
}

TEST(Augment, ShiftMovesContent) {
  Tensor img({1, 4, 4});
  img[5] = 1.0f;  // (y=1, x=1)
  const Tensor shifted = data::shift(img, 1, 1);
  EXPECT_EQ(shifted[(2) * 4 + 2], 1.0f);
  // Zero shift is identity.
  EXPECT_EQ(ops::max_abs_diff(data::shift(img, 0, 0), img), 0.0);
}

TEST(Augment, ShiftClampsAtEdges) {
  Tensor img({1, 2, 2});
  img[0] = 0.25f;
  img[1] = 0.75f;
  img[2] = 0.5f;
  img[3] = 1.0f;
  const Tensor shifted = data::shift(img, 5, 5);  // everything from corner
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(shifted[i], 0.25f);
}

TEST(Augment, ColorJitterStaysInRange) {
  const Tensor img = test_image();
  const Tensor j = data::color_jitter(img, 1.5f, 1.4f);
  for (int64_t i = 0; i < j.numel(); ++i) {
    EXPECT_GE(j[i], 0.0f);
    EXPECT_LE(j[i], 1.0f);
  }
  // Identity jitter is identity.
  EXPECT_LT(ops::max_abs_diff(data::color_jitter(img, 1.0f, 1.0f), img),
            1e-6);
}

TEST(Augment, FullPipelineDeterministicPerSeed) {
  const Tensor img = test_image();
  data::AugmentConfig cfg;
  Rng a(7), b(7), c(8);
  const Tensor out_a = data::augment(img, cfg, a);
  const Tensor out_b = data::augment(img, cfg, b);
  EXPECT_EQ(ops::max_abs_diff(out_a, out_b), 0.0);
  const Tensor out_c = data::augment(img, cfg, c);
  EXPECT_GT(ops::max_abs_diff(out_a, out_c), 0.0);
}

TEST(Augment, BatchAppliesPerImage) {
  Tensor batch({2, 3, 8, 8});
  Rng rng(9);
  ops::fill_uniform(batch, rng, 0.0f, 1.0f);
  data::AugmentConfig cfg;
  cfg.noise_sigma = 0.0f;
  Rng arng(10);
  const Tensor out = data::augment_batch(batch, cfg, arng);
  EXPECT_EQ(out.shape(), batch.shape());
  for (int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_GE(out[i], 0.0f);
    EXPECT_LE(out[i], 1.0f);
  }
}

}  // namespace
}  // namespace cham
