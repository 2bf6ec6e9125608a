// Learner checkpointing: a power-cycled Chameleon resumes with identical
// predictions, buffers and accuracy.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "core/checkpoint.h"
#include "metrics/experiment.h"
#include "net/protocol.h"
#include "nn/model_io.h"
#include "replay/serialize.h"
#include "serve/session_store.h"
#include "tensor/byte_mask.h"
#include "tensor/rng.h"
#include "util/bytes.h"
#include "util/tmp_path.h"

namespace cham {
namespace {

class CheckpointSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    metrics::ExperimentConfig cfg = metrics::core50_experiment();
    cfg.data.num_classes = 6;
    cfg.data.num_domains = 2;
    cfg.data.train_instances = 5;
    cfg.pretrain_num_classes = 12;
    cfg.pretrain_epochs = 4;
    cfg.learner_lr = 0.02f;
    exp_ = new metrics::Experiment(cfg);
    stream_ = new data::DomainIncrementalStream(cfg.data, cfg.stream);
    exp_->warm_latents(*stream_);
  }
  static void TearDownTestSuite() {
    delete stream_;
    delete exp_;
  }

  static metrics::Experiment* exp_;
  static data::DomainIncrementalStream* stream_;
};

metrics::Experiment* CheckpointSuite::exp_ = nullptr;
data::DomainIncrementalStream* CheckpointSuite::stream_ = nullptr;

// A learner's CHS2 blob, as a string the forgery cases can splice.
std::string blob_of(const core::ChameleonLearner& learner) {
  core::ByteBuf blob;
  EXPECT_TRUE(learner.save_state(blob));
  return std::string(blob.data(), blob.size());
}

bool load_bytes(core::ChameleonLearner& learner, const std::string& bytes) {
  util::Reader r(bytes.data(), bytes.size());
  return learner.load_state(r);
}

bool save_file(const core::ChameleonLearner& learner, const std::string& path) {
  const std::string blob = blob_of(learner);
  std::ofstream os(path, std::ios::binary);
  os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  return os.flush().good();
}

bool load_file(core::ChameleonLearner& learner, const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return load_bytes(learner, {std::istreambuf_iterator<char>(is),
                              std::istreambuf_iterator<char>()});
}

std::string frame_of(const replay::SlotStore& store) {
  core::ByteBuf frame;
  replay::save_slot_store_q(store, frame);
  return std::string(frame.data(), frame.size());
}

// Where each section of a learner's CHS2 blob starts: the header (u32
// magic, u32 version, u8 precision, u64 template hash), the head params
// encoded against the template, 4-word rng state and step, then the ST
// frame, one LT frame per class and the staged burst.
struct BlobLayout {
  size_t head_at = 17;
  size_t st_at = 0;
  std::vector<size_t> lt_at;  // per class, then the staged burst's offset
};

BlobLayout layout_of(core::ChameleonLearner& learner,
                     metrics::Experiment& exp) {
  core::ByteBuf head;
  EXPECT_TRUE(nn::save_params_relative(learner.head(),
                                       exp.env().head_template, head));
  BlobLayout l;
  l.st_at = l.head_at + head.size() + 32 + 8;
  const int64_t num_classes = exp.config().data.num_classes;
  size_t at = l.st_at + frame_of(learner.short_term().store()).size();
  for (int64_t c = 0; c < num_classes; ++c) {
    l.lt_at.push_back(at);
    at += frame_of(learner.long_term().class_store(c)).size();
  }
  l.lt_at.push_back(at);
  return l;
}

// A real end-of-stream blob for the replay-forgery cases: splices one
// forged frame in and loads the result into a fresh learner.
struct ForgeryBench {
  ForgeryBench(metrics::Experiment& e,
               const data::DomainIncrementalStream& stream)
      : exp(e), source(e.env(), config(), 6) {
    for (const auto& b : stream.batches()) source.observe(b);
    blob = blob_of(source);
    layout = layout_of(source, exp);
  }

  static core::ChameleonConfig config() {
    core::ChameleonConfig cc;
    cc.lt_capacity = 18;  // quota 3 over 6 classes
    cc.lt_period_h = 2;   // the short stream fills the LT several times
    return cc;
  }

  // Loads the bytes into a fresh learner of the source's config.
  bool loads(const std::string& bytes) {
    core::ChameleonLearner target(exp.env(), config(), 1234);
    return load_bytes(target, bytes);
  }

  // The blob with bytes [from, to) replaced by `frame`.
  std::string spliced(size_t from, size_t to, const std::string& frame) const {
    return blob.substr(0, from) + frame + blob.substr(to);
  }

  // The blob with LT class c's frame replaced by `frame`.
  std::string with_lt_frame(int64_t c, const std::string& frame) const {
    const auto ci = static_cast<size_t>(c);
    return spliced(layout.lt_at[ci], layout.lt_at[ci + 1], frame);
  }

  // The first LT class holding an entry (-1 if none does).
  int64_t occupied_class() const {
    for (int64_t c = 0; c < exp.config().data.num_classes; ++c) {
      if (source.long_term().class_count(c) > 0) return c;
    }
    return -1;
  }

  metrics::Experiment& exp;
  core::ChameleonLearner source;
  std::string blob;
  BlobLayout layout;
};

TEST_F(CheckpointSuite, RoundTripRestoresPredictionsAndBuffers) {
  core::ChameleonConfig cc;
  cc.lt_capacity = 18;
  core::ChameleonLearner original(exp_->env(), cc, 1);
  exp_->run(original, *stream_);
  const auto test_keys = data::all_test_keys(exp_->config().data);
  const auto preds_before = original.predict(test_keys);

  const std::string path = util::tmp_path("test_checkpoint");
  ASSERT_TRUE(save_file(original, path));

  // "Reboot": a fresh learner with the same config and a different seed
  // (different classifier init) — restore must override all of it.
  core::ChameleonLearner restored(exp_->env(), cc, 99);
  ASSERT_TRUE(load_file(restored, path));

  EXPECT_EQ(restored.predict(test_keys), preds_before);
  EXPECT_EQ(restored.short_term().size(), original.short_term().size());
  EXPECT_EQ(restored.long_term().size(), original.long_term().size());
  for (int64_t c = 0; c < exp_->config().data.num_classes; ++c) {
    EXPECT_EQ(restored.long_term().class_count(c),
              original.long_term().class_count(c));
  }

  std::remove(path.c_str());
}

TEST_F(CheckpointSuite, RestoredLearnerKeepsLearning) {
  core::ChameleonConfig cc;
  cc.lt_capacity = 18;
  core::ChameleonLearner original(exp_->env(), cc, 2);
  // Train on the first half, checkpoint, resume on the second half.
  const auto& batches = stream_->batches();
  const size_t half = batches.size() / 2;
  for (size_t i = 0; i < half; ++i) original.observe(batches[i]);

  const std::string path = util::tmp_path("test_checkpoint2");
  ASSERT_TRUE(save_file(original, path));
  core::ChameleonLearner resumed(exp_->env(), cc, 77);
  ASSERT_TRUE(load_file(resumed, path));
  for (size_t i = half; i < batches.size(); ++i) resumed.observe(batches[i]);

  const double acc = exp_->evaluate(resumed).acc_all;
  EXPECT_GT(acc, 100.0 / 6.0);  // above chance after the resumed half
  std::remove(path.c_str());
}

// The serving-runtime contract (src/serve/): a learner evicted mid-stream
// through the SessionStore and restored later continues the stream
// BIT-IDENTICALLY to a run that was never interrupted — including the
// mid-window preference counters and the staged LT burst cursor, whose loss
// would silently change every subsequent replay draw.
TEST_F(CheckpointSuite, MidStreamResumeViaSessionStoreIsBitIdentical) {
  core::ChameleonConfig cc;
  cc.lt_capacity = 18;
  cc.lt_period_h = 4;  // short period so the 6-batch stream spans a burst
  const auto& batches = stream_->batches();
  // Cut INSIDE an LT period (not on a multiple of h) and inside a learning
  // window, so the staged burst cursor and window counters are mid-flight.
  const size_t cut = static_cast<size_t>(cc.lt_period_h) + 1;
  ASSERT_LT(cut, batches.size());

  core::ChameleonLearner uninterrupted(exp_->env(), cc, 5);
  for (const auto& b : batches) uninterrupted.observe(b);

  core::ChameleonLearner first_half(exp_->env(), cc, 5);
  for (size_t i = 0; i < cut; ++i) first_half.observe(batches[i]);
  EXPECT_GT(first_half.preferences().window_seen(), 0)
      << "cut point must land mid-window for this test to bite";

  serve::SessionStore store(util::tmp_path("test_midstream"));
  store.clear();
  core::ByteBuf blob;
  ASSERT_TRUE(first_half.save_state(blob));
  ASSERT_TRUE(store.put_full(/*session_id=*/1, blob.data(), blob.size()));

  core::ChameleonLearner resumed(exp_->env(), cc, 4242);  // different seed
  ASSERT_TRUE(store.load(1, resumed));
  EXPECT_EQ(resumed.steps_observed(), static_cast<int64_t>(cut));
  EXPECT_EQ(resumed.preferences().window_seen(),
            first_half.preferences().window_seen());
  EXPECT_EQ(resumed.preferences().samples_seen(),
            first_half.preferences().samples_seen());
  EXPECT_EQ(resumed.preferences().recalibrations(),
            first_half.preferences().recalibrations());
  for (size_t i = cut; i < batches.size(); ++i) resumed.observe(batches[i]);

  // Predictions, head weights, replay stores and the traffic ledger all
  // match the never-interrupted run exactly.
  const auto test_keys = data::all_test_keys(exp_->config().data);
  EXPECT_EQ(resumed.predict(test_keys), uninterrupted.predict(test_keys));
  auto pa = uninterrupted.head().params();
  auto pb = resumed.head().params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(std::memcmp(pa[i]->value.data(), pb[i]->value.data(),
                          static_cast<size_t>(pa[i]->value.numel()) *
                              sizeof(float)),
              0)
        << "head param " << i << " diverged after resume";
  }
  ASSERT_EQ(resumed.short_term().size(), uninterrupted.short_term().size());
  for (int64_t i = 0; i < resumed.short_term().size(); ++i) {
    const auto& sta = uninterrupted.short_term().store();
    const auto& stb = resumed.short_term().store();
    EXPECT_EQ(sta.label(i), stb.label(i));
    EXPECT_EQ(std::memcmp(sta.row(i), stb.row(i),
                          static_cast<size_t>(sta.row_numel()) *
                              sizeof(float)),
              0)
        << "ST slot " << i << " diverged after resume";
  }
  // LT: every class's keys, labels and rows in slot order, compared as the
  // stores' own frames.
  core::ByteBuf la, lb;
  uninterrupted.long_term().save(la);
  resumed.long_term().save(lb);
  EXPECT_TRUE(la == lb) << "LT diverged after resume";
  EXPECT_EQ(resumed.preferences().delta_k(),
            uninterrupted.preferences().delta_k());
  EXPECT_EQ(resumed.preferences().window_seen(),
            uninterrupted.preferences().window_seen());
  EXPECT_EQ(resumed.stats().onchip_bytes, uninterrupted.stats().onchip_bytes);
  EXPECT_EQ(resumed.stats().offchip_bytes,
            uninterrupted.stats().offchip_bytes);
  store.clear();
}

// Blobs are fp32-only: a CHS2 blob whose precision tag claims another
// precision (as a lossy writer once produced) is rejected before the
// learner is touched, so a failed restore never leaves half-loaded state.
TEST_F(CheckpointSuite, NonFp32PrecisionTagIsRejectedBeforeMutation) {
  core::ChameleonConfig cc;
  cc.lt_capacity = 18;
  core::ChameleonLearner source(exp_->env(), cc, 6);
  for (const auto& b : stream_->batches()) source.observe(b);
  core::ByteBuf blob;
  ASSERT_TRUE(source.save_state(blob));
  // Header: u32 magic, u32 version, then the u8 precision tag.
  constexpr size_t kTagOffset = 8;
  ASSERT_EQ(blob[kTagOffset], static_cast<char>(quant::Precision::kFp32));
  blob[kTagOffset] = static_cast<char>(quant::Precision::kInt8);

  core::ChameleonLearner target(exp_->env(), cc, 1234);
  target.observe(stream_->batches().front());
  core::ByteBuf before;
  ASSERT_TRUE(target.save_state(before));
  util::Reader r(blob.data(), blob.size());
  EXPECT_FALSE(target.load_state(r));
  core::ByteBuf after;
  ASSERT_TRUE(target.save_state(after));
  EXPECT_TRUE(before == after) << "a rejected blob mutated the learner";
}

// The staged LT burst's count is read from untrusted bytes: a count forged
// to the format's limit with no refs behind it must fail the load, not size
// an allocation from the forged count.
TEST_F(CheckpointSuite, ForgedStagedCountWithoutPayloadIsRejected) {
  core::ChameleonConfig cc;
  cc.lt_capacity = 18;
  cc.lt_period_h = 2;  // a burst every other batch: the stream stages one
  core::ChameleonLearner source(exp_->env(), cc, 6);
  auto i64_at = [](const std::string& bytes, size_t off) {
    int64_t v = -1;
    std::memcpy(&v, bytes.data() + off, sizeof(v));
    return v;
  };
  // Stop mid-burst, so the blob carries staged refs.
  std::string blob;
  size_t at = 0;
  int64_t staged = 0;
  for (const auto& b : stream_->batches()) {
    source.observe(b);
    blob = blob_of(source);
    at = layout_of(source, *exp_).lt_at.back();
    ASSERT_LE(at + 8, blob.size());
    staged = i64_at(blob, at);
    if (staged > 0) break;
  }
  ASSERT_GT(staged, 0) << "the stream never left a staged LT burst";
  ASSERT_LE(staged, cc.lt_capacity);

  auto i64 = [](int64_t v) {
    return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto load = [&](const std::string& bytes) {
    core::ChameleonLearner target(exp_->env(), cc, 1234);
    return load_bytes(target, bytes);
  };
  // Control: the same blob with the burst dropped (count 0, cursor 0) still
  // loads, so `at` is the staged count's offset.
  const size_t rest = at + 8 + static_cast<size_t>(staged) * 8 + 8;
  ASSERT_LE(rest, blob.size());
  EXPECT_TRUE(load(blob));
  EXPECT_TRUE(load(blob.substr(0, at) + i64(0) + i64(0) + blob.substr(rest)));

  EXPECT_NO_THROW(
      EXPECT_FALSE(load(blob.substr(0, at) + i64(int64_t{1} << 32))));
}

// The ST slot store's capacity sizes its slab on the first row loaded, so
// a blob must not choose it: a capacity forged to the slab bound (2^32
// floats) in front of one real row fails the load instead of allocating.
TEST_F(CheckpointSuite, ForgedStCapacityWithOneRealRowIsRejected) {
  core::ChameleonConfig cc;
  cc.lt_capacity = 18;
  core::ChameleonLearner source(exp_->env(), cc, 6);
  source.observe(stream_->batches().front());
  const std::string blob = blob_of(source);

  const size_t at = layout_of(source, *exp_).st_at;
  const replay::SlotStore& st = source.short_term().store();
  const std::string st_bytes = frame_of(st);
  ASSERT_EQ(blob.compare(at, st_bytes.size(), st_bytes), 0);
  ASSERT_GE(st.size(), 1);

  // The same store cut down to one real row.
  replay::SlotStore one_row(st.capacity());
  Rng rng(0);
  one_row.random_replace_add(st.key(0), st.label(0), st.row_shape(),
                             st.row(0), rng);
  const std::string one_bytes = frame_of(one_row);
  const std::string prefix = blob.substr(0, at);
  const std::string suffix = blob.substr(at + st_bytes.size());

  auto load = [&](int64_t capacity) {
    std::string store = one_bytes;
    // Store framing: u32 magic, u32 version, then the i64 capacity.
    std::memcpy(store.data() + 8, &capacity, sizeof(capacity));
    core::ChameleonLearner target(exp_->env(), cc, 1234);
    return load_bytes(target, prefix + store + suffix);
  };
  EXPECT_TRUE(load(st.capacity())) << "control: the one-row blob loads";
  EXPECT_NO_THROW(EXPECT_FALSE(load((int64_t{1} << 32) / st.row_numel())));
  EXPECT_NO_THROW(EXPECT_FALSE(load(st.capacity() + 1)));
}

TEST_F(CheckpointSuite, RejectsMissingOrCorrupt) {
  core::ChameleonConfig cc;
  core::ChameleonLearner learner(exp_->env(), cc, 3);
  EXPECT_FALSE(load_file(learner, util::tmp_path("nope_checkpoint")));

  const std::string path = util::tmp_path("test_checkpoint3");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("garbage", f);
  std::fclose(f);
  EXPECT_FALSE(load_file(learner, path));
  std::remove(path.c_str());
}

// Forged replay rows: every row either memory holds is read by the head's
// gather as a latent of the learner's shape, and every LT entry is filed
// under its own class, so a blob whose frames say otherwise fails the load
// (nothing throws, nothing is read out of bounds). Each case splices one
// forged frame into a real blob, which itself loads.
TEST_F(CheckpointSuite, ForgedStRowShapeIsRejected) {
  ForgeryBench fb(*exp_, *stream_);
  ASSERT_TRUE(fb.loads(fb.blob)) << "control: the unmodified blob loads";
  // An ST frame of the learner's capacity holding one row of shape {1}:
  // the gather would read a whole latent from a one-float slab.
  const replay::SlotStore& st = fb.source.short_term().store();
  replay::SlotStore forged(st.capacity());
  Rng rng(0);
  const float value = 1.0f;
  forged.random_replace_add(st.key(0), st.label(0), Shape{{1}}, &value, rng);
  const size_t st_end = fb.layout.st_at + frame_of(st).size();
  EXPECT_NO_THROW(EXPECT_FALSE(
      fb.loads(fb.spliced(fb.layout.st_at, st_end, frame_of(forged)))));
}

TEST_F(CheckpointSuite, ForgedLtRowShapeIsRejected) {
  ForgeryBench fb(*exp_, *stream_);
  const int64_t c = fb.occupied_class();
  ASSERT_GE(c, 0) << "the stream left the LT empty";
  const replay::SlotStore& real = fb.source.long_term().class_store(c);
  // The real row shape with its last dim one wider.
  std::vector<int64_t> dims(real.row_shape().dims().begin(),
                            real.row_shape().dims().end());
  dims.back() += 1;
  const Shape wider{std::span<const int64_t>(dims)};
  replay::SlotStore forged(real.capacity());
  Rng rng(0);
  const std::vector<float> row(static_cast<size_t>(wider.numel()), 1.0f);
  forged.random_replace_add(real.key(0), c, wider, row.data(), rng);
  EXPECT_NO_THROW(
      EXPECT_FALSE(fb.loads(fb.with_lt_frame(c, frame_of(forged)))));
}

TEST_F(CheckpointSuite, ForgedLtEntryUnderAnotherClassIsRejected) {
  ForgeryBench fb(*exp_, *stream_);
  // Class c's real frame filed in the next class's place.
  const int64_t c = fb.occupied_class();
  ASSERT_GE(c, 0) << "the stream left the LT empty";
  const int64_t other = (c + 1) % exp_->config().data.num_classes;
  const std::string frame = frame_of(fb.source.long_term().class_store(c));
  EXPECT_TRUE(fb.loads(fb.with_lt_frame(c, frame))) << "control";
  EXPECT_NO_THROW(EXPECT_FALSE(fb.loads(fb.with_lt_frame(other, frame))));
}

TEST_F(CheckpointSuite, ForgedLtCountAboveQuotaIsRejected) {
  ForgeryBench fb(*exp_, *stream_);
  // quota + 1 real rows of class c, framed at their own capacity (not the
  // class's) and then at the quota's (the count is over it).
  const int64_t c = fb.occupied_class();
  ASSERT_GE(c, 0) << "the stream left the LT empty";
  const replay::SlotStore& real = fb.source.long_term().class_store(c);
  const int64_t quota = fb.source.long_term().per_class_quota();
  replay::SlotStore over(quota + 1);
  Rng rng(0);
  for (int64_t i = 0; i <= quota; ++i) {
    over.random_replace_add(real.key(0), c, real.row_shape(), real.row(0),
                            rng);
  }
  std::string frame = frame_of(over);
  EXPECT_NO_THROW(EXPECT_FALSE(fb.loads(fb.with_lt_frame(c, frame))));
  // Frame: u32 magic, u32 version, then the i64 capacity.
  std::memcpy(frame.data() + 8, &quota, sizeof(quota));
  EXPECT_NO_THROW(EXPECT_FALSE(fb.loads(fb.with_lt_frame(c, frame))));
}

TEST_F(CheckpointSuite, VersionFourBlobIsRejected) {
  // Version 4 framed the LT as a list of per-sample tensors, version 5's
  // traffic ledger carried the workspace gauges and version 6 stored the
  // head's raw floats; a blob of any of them fails the version check like
  // any other version.
  ForgeryBench fb(*exp_, *stream_);
  for (const uint32_t version : {4u, 5u, 6u}) {
    SCOPED_TRACE(version);
    std::string old = fb.blob;
    std::memcpy(old.data() + 4, &version, sizeof(version));
    EXPECT_NO_THROW(EXPECT_FALSE(fb.loads(old)));
  }
}

// ------------------------------------------------ template-relative head
//
// CHS2 v7 stores each head tensor as the byte-mask encoding of its bytes
// XOR the shared template's (tensor/byte_mask.h). The decoder reads
// untrusted bytes: every forgery below must fail the load without
// throwing.

uint64_t u64_at(const std::string& bytes, size_t off) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + off, sizeof(v));
  return v;
}

// One 64-byte block of the head section: where its mask sits, the mask,
// how many tensor bytes it covers, and where the next block starts.
struct HeadBlock {
  size_t mask_at = 0;
  uint64_t mask = 0;
  size_t len = 0;
  size_t end = 0;
};

std::vector<HeadBlock> head_blocks(const std::string& blob, size_t head_at) {
  std::vector<HeadBlock> out;
  size_t at = head_at;
  const uint64_t count = u64_at(blob, at);
  at += 8;
  for (uint64_t t = 0; t < count; ++t) {
    const size_t bytes = u64_at(blob, at) * sizeof(float);
    at += 8;
    for (size_t off = 0; off < bytes; off += 64) {
      HeadBlock b;
      b.mask_at = at;
      b.mask = u64_at(blob, at);
      b.len = std::min<size_t>(64, bytes - off);
      b.end = at + 8 + static_cast<size_t>(std::popcount(b.mask));
      at = b.end;
      out.push_back(b);
    }
  }
  return out;
}

TEST_F(CheckpointSuite, LoadThenSaveReproducesTheBlob) {
  ForgeryBench fb(*exp_, *stream_);
  EXPECT_LE(fb.blob.size(), fb.source.state_bytes_bound());
  core::ChameleonLearner target(exp_->env(), ForgeryBench::config(), 77);
  ASSERT_TRUE(load_bytes(target, fb.blob));
  EXPECT_TRUE(blob_of(target) == fb.blob) << "load + save changed the blob";
  // Every block's mask covers only its tensor's bytes, and the section
  // ends where the rng state begins.
  const auto blocks = head_blocks(fb.blob, fb.layout.head_at);
  ASSERT_FALSE(blocks.empty());
  EXPECT_EQ(blocks.back().end + 32 + 8, fb.layout.st_at);
  // Relative to the template, the trained head is smaller than raw.
  core::ByteBuf raw;
  nn::save_params(fb.source.head(), raw);
  EXPECT_LT(fb.layout.st_at - fb.layout.head_at, raw.size());
}

// save_state sizes its buffer once: into an empty ByteBuf it reserves
// exactly state_bytes_bound(), and the bound past the head is the exact
// length of the rest of the blob, for an empty learner, full stores and a
// learner stopped mid-burst with staged refs.
TEST_F(CheckpointSuite, SaveStateSizesItsBufferOnce) {
  auto expect_sized_once = [&](core::ChameleonLearner& l) {
    core::ByteBuf blob;
    ASSERT_TRUE(l.save_state(blob));
    const size_t bound = l.state_bytes_bound();
    EXPECT_EQ(blob.capacity(), bound) << "the blob grew past its reservation";
    core::ByteBuf head;
    ASSERT_TRUE(nn::save_params_relative(l.head(), exp_->env().head_template,
                                         head));
    EXPECT_EQ(bound - nn::params_relative_bound(l.head()),
              blob.size() - head.size())
        << "the bound past the head is not the rest of the blob";
  };
  {
    SCOPED_TRACE("empty");
    core::ChameleonLearner empty(exp_->env(), ForgeryBench::config(), 6);
    expect_sized_once(empty);
  }
  {
    SCOPED_TRACE("full stores");
    core::ChameleonLearner full(exp_->env(), ForgeryBench::config(), 6);
    for (int pass = 0; pass < 3; ++pass) {
      for (const auto& b : stream_->batches()) full.observe(b);
    }
    ASSERT_EQ(full.short_term().size(), full.short_term().capacity());
    ASSERT_EQ(full.long_term().size(), full.long_term().capacity());
    expect_sized_once(full);
  }
  {
    SCOPED_TRACE("mid-burst");
    core::ChameleonLearner source(exp_->env(), ForgeryBench::config(), 6);
    uint64_t staged = 0;
    for (const auto& b : stream_->batches()) {
      source.observe(b);
      staged = u64_at(blob_of(source), layout_of(source, *exp_).lt_at.back());
      if (staged > 0) break;
    }
    ASSERT_GT(staged, 0u) << "the stream never left a staged LT burst";
    expect_sized_once(source);
  }
}

// The decoder accepts exactly one blob: every proper prefix fails the load
// (at each section boundary, one byte either side of it, and at 256 seeded
// lengths), and so does the blob with one byte appended.
TEST_F(CheckpointSuite, TruncatedOrPaddedBlobIsRejected) {
  ForgeryBench fb(*exp_, *stream_);
  ASSERT_TRUE(fb.loads(fb.blob)) << "control";
  const BlobLayout& l = fb.layout;
  // After the LT frames: the staged count, its refs and the cursor, the
  // preference statistics, then the ledger and its three audit totals.
  const size_t staged_at = l.lt_at.back();
  const size_t prefs_at =
      staged_at + 8 + static_cast<size_t>(u64_at(fb.blob, staged_at)) * 8 + 8;
  const size_t ledger_at = prefs_at + fb.source.preferences().saved_bytes();
  ASSERT_EQ(ledger_at + sizeof(core::OpStats) + 3 * 8, fb.blob.size());
  std::vector<size_t> cuts = {4,           8,          9,
                              l.head_at,   l.st_at - 40, l.st_at - 8,
                              staged_at + 8, prefs_at - 8, prefs_at,
                              ledger_at,   ledger_at + sizeof(core::OpStats),
                              fb.blob.size()};
  cuts.insert(cuts.end(), l.lt_at.begin(), l.lt_at.end());
  cuts.push_back(l.st_at);
  std::vector<size_t> lengths;
  for (const size_t c : cuts) {
    for (const size_t n : {c - 1, c, c + 1}) {
      if (n < fb.blob.size()) lengths.push_back(n);
    }
  }
  Rng rng(31);
  for (int i = 0; i < 256; ++i) {
    lengths.push_back(static_cast<size_t>(
        rng.uniform_int(static_cast<int64_t>(fb.blob.size()))));
  }
  for (const size_t n : lengths) {
    EXPECT_NO_THROW(EXPECT_FALSE(fb.loads(fb.blob.substr(0, n))))
        << "prefix " << n;
  }
  EXPECT_NO_THROW(EXPECT_FALSE(fb.loads(fb.blob + '\0')))
      << "one byte appended";
}

// Single-byte flips outside the head (in the header and every section after
// the head) either load or fail the load; none throws or, under the
// sanitizers, reads out of bounds.
TEST_F(CheckpointSuite, ByteFlipsOutsideTheHeadLoadOrFail) {
  ForgeryBench fb(*exp_, *stream_);
  const size_t head_end = fb.layout.st_at - 40;
  const auto outside =
      static_cast<int64_t>(fb.layout.head_at + fb.blob.size() - head_end);
  Rng rng(47);
  int rejected = 0;
  for (int i = 0; i < 512; ++i) {
    auto at = static_cast<size_t>(rng.uniform_int(outside));
    if (at >= fb.layout.head_at) at += head_end - fb.layout.head_at;
    std::string forged = fb.blob;
    forged[at] = static_cast<char>(forged[at] ^ (1 + rng.uniform_int(255)));
    bool ok = true;
    EXPECT_NO_THROW(ok = fb.loads(forged)) << "flip at " << at;
    rejected += ok ? 0 : 1;
  }
  EXPECT_GT(rejected, 0) << "no flip reached a checked field";
}

TEST_F(CheckpointSuite, ForgedHeadMasksAreRejected) {
  ForgeryBench fb(*exp_, *stream_);
  ASSERT_TRUE(fb.loads(fb.blob)) << "control";
  const auto blocks = head_blocks(fb.blob, fb.layout.head_at);
  auto with_mask = [&](const HeadBlock& b, uint64_t mask) {
    std::string forged = fb.blob;
    std::memcpy(forged.data() + b.mask_at, &mask, sizeof(mask));
    return forged;
  };
  // A mask bit past a tensor's tail (a short last block).
  const auto tail = std::find_if(blocks.begin(), blocks.end(),
                                 [](const HeadBlock& b) { return b.len < 64; });
  ASSERT_NE(tail, blocks.end()) << "no head tensor ends mid-block";
  EXPECT_NO_THROW(EXPECT_FALSE(
      fb.loads(with_mask(*tail, tail->mask | (uint64_t{1} << tail->len)))));
  // A masked byte that is zero: never written by the encoder.
  const auto busy =
      std::find_if(blocks.begin(), blocks.end(),
                   [](const HeadBlock& b) { return b.mask != 0; });
  ASSERT_NE(busy, blocks.end());
  {
    std::string forged = fb.blob;
    forged[busy->mask_at + 8] = 0;
    EXPECT_NO_THROW(EXPECT_FALSE(fb.loads(forged)));
  }
  // The last block's mask claiming every byte: its popcount runs past the
  // blob's end once the blob is cut there.
  const HeadBlock& last = blocks.back();
  EXPECT_NO_THROW(EXPECT_FALSE(fb.loads(
      with_mask(last, ~uint64_t{0}).substr(0, last.mask_at + 8 + 8))));
  // A blob cut inside a block's bytes, and one cut between two blocks of
  // one tensor.
  ASSERT_GT(std::popcount(busy->mask), 1);
  EXPECT_NO_THROW(EXPECT_FALSE(fb.loads(fb.blob.substr(0, busy->end - 1))));
  const auto inner =
      std::find_if(blocks.begin(), blocks.end(),
                   [](const HeadBlock& b) { return b.len == 64; });
  ASSERT_NE(inner, blocks.end());
  EXPECT_NO_THROW(EXPECT_FALSE(fb.loads(fb.blob.substr(0, inner->end))));
}

TEST_F(CheckpointSuite, BlobAgainstAnotherTemplateIsRejected) {
  ForgeryBench fb(*exp_, *stream_);
  // The header's hash names another template.
  std::string forged = fb.blob;
  forged[fb.layout.head_at - 1] ^= 1;
  EXPECT_NO_THROW(EXPECT_FALSE(fb.loads(forged)));

  // A learner with no template encodes against zeros, under hash 0: its
  // blob round-trips in a template-less env and loads nowhere else.
  core::LearnerEnv bare = exp_->env();
  bare.head_template = nullptr;
  bare.template_hash = 0;
  core::ChameleonLearner source(bare, ForgeryBench::config(), 6);
  for (const auto& b : stream_->batches()) source.observe(b);
  const std::string blob = blob_of(source);
  EXPECT_LE(blob.size(), source.state_bytes_bound());
  EXPECT_FALSE(fb.loads(blob));
  core::ChameleonLearner target(bare, ForgeryBench::config(), 1234);
  ASSERT_TRUE(load_bytes(target, blob));
  const auto test_keys = data::all_test_keys(exp_->config().data);
  EXPECT_EQ(target.predict(test_keys), source.predict(test_keys));
  EXPECT_TRUE(blob_of(target) == blob);
}

// The codec's two paths (byte_mask.h) write the same bytes and each
// decodes the other's output, for every length up to 200 bytes and for the
// trained head's own tensors against the template. On a build without the
// VBMI2 path both sides are the scalar one.
void expect_paths_agree(const char* cur, const char* base, size_t n) {
  std::vector<char> simd(bytemask::encoded_bound(n) + 1, 'x');
  std::vector<char> scalar(bytemask::encoded_bound(n) + 1, 'x');
  const size_t ws = bytemask::encode(cur, base, n, simd.data());
  const size_t wr = bytemask::ref::encode(cur, base, n, scalar.data());
  ASSERT_EQ(ws, wr) << "n " << n;
  ASSERT_LE(ws, bytemask::encoded_bound(n));
  ASSERT_EQ(std::memcmp(simd.data(), scalar.data(), ws), 0) << "n " << n;
  EXPECT_EQ(simd[ws], 'x') << "wrote past its length, n " << n;
  std::vector<char> a(n + 1, 'y'), b(n + 1, 'y');
  EXPECT_EQ(bytemask::decode(scalar.data(), wr, base, n, a.data()), wr);
  EXPECT_EQ(bytemask::ref::decode(simd.data(), ws, base, n, b.data()), ws);
  EXPECT_EQ(std::memcmp(a.data(), cur, n), 0) << "n " << n;
  EXPECT_EQ(std::memcmp(b.data(), cur, n), 0) << "n " << n;
  EXPECT_EQ(a[n], 'y');
  EXPECT_EQ(b[n], 'y');
}

TEST(ByteMaskCodec, PathsAgreeOnEveryLengthTo200) {
  Rng rng(11);
  std::vector<char> base(200), cur(200);
  for (auto& c : base) c = static_cast<char>(rng.uniform_int(256));
  for (int pattern = 0; pattern < 3; ++pattern) {
    for (size_t i = 0; i < cur.size(); ++i) {
      // Equal bytes, every byte changed, and a mix.
      const bool change =
          pattern == 1 || (pattern == 2 && rng.uniform_int(3) == 0);
      cur[i] = change ? static_cast<char>(base[i] ^ (1 + rng.uniform_int(255)))
                      : base[i];
    }
    for (size_t n = 0; n <= cur.size(); ++n) {
      SCOPED_TRACE(pattern);
      expect_paths_agree(cur.data(), base.data(), n);
      expect_paths_agree(cur.data(), nullptr, n);
    }
  }
}

TEST_F(CheckpointSuite, ByteMaskPathsAgreeOnHeadTensors) {
  ForgeryBench fb(*exp_, *stream_);
  auto cur = fb.source.head().params();
  auto base = const_cast<nn::Sequential&>(exp_->head_template()).params();
  ASSERT_EQ(cur.size(), base.size());
  for (size_t i = 0; i < cur.size(); ++i) {
    SCOPED_TRACE(i);
    expect_paths_agree(reinterpret_cast<const char*>(cur[i]->value.data()),
                       reinterpret_cast<const char*>(base[i]->value.data()),
                       static_cast<size_t>(cur[i]->value.numel()) *
                           sizeof(float));
  }
}

// ------------------------------------------------------------ CHS3 deltas
//
// The delta frames the write-behind eviction pipeline writes between full
// blobs (core/checkpoint.h). Pure byte-level tests; the end-to-end replay
// path is covered in tests/test_serve.cpp.

TEST(DeltaSuite, OpLogRoundTripAndHeader) {
  std::vector<data::ServeOp> ops(3);
  ops[0].predict = false;
  ops[0].batch.keys = {{1, 0, 2, false}, {3, 1, 4, false}};
  ops[0].batch.labels = {1, 3};
  ops[0].batch.domain = 1;
  ops[1].predict = true;
  ops[1].keys = {{2, 0, 0, true}, {5, 1, 1, true}, {0, 0, 3, true}};
  ops[2].predict = false;
  ops[2].batch.keys = {{4, 1, 0, false}};
  ops[2].batch.labels = {4};
  ops[2].batch.domain = 0;

  core::DeltaHeader h;
  h.kind = core::DeltaKind::kOpLog;
  h.base_hash = 0x1111;
  h.base_len = 22;
  h.next_hash = 0x2222;
  h.next_len = 33;
  const core::ByteBuf frame = core::encode_op_log(h, ops);
  EXPECT_TRUE(core::is_delta_blob(frame.data(), frame.size()));

  core::DeltaHeader g;
  ASSERT_TRUE(core::read_delta_header(frame.data(), frame.size(), g));
  EXPECT_EQ(g.kind, core::DeltaKind::kOpLog);
  EXPECT_EQ(g.base_hash, h.base_hash);
  EXPECT_EQ(g.next_len, h.next_len);

  std::vector<data::ServeOp> back;
  ASSERT_TRUE(core::read_op_log(frame.data(), frame.size(), back));
  ASSERT_EQ(back.size(), ops.size());
  EXPECT_FALSE(back[0].predict);
  EXPECT_EQ(back[0].batch.labels, ops[0].batch.labels);
  EXPECT_EQ(back[0].batch.domain, ops[0].batch.domain);
  ASSERT_EQ(back[0].batch.keys.size(), ops[0].batch.keys.size());
  EXPECT_EQ(back[0].batch.keys[1].class_id, ops[0].batch.keys[1].class_id);
  EXPECT_TRUE(back[1].predict);
  ASSERT_EQ(back[1].keys.size(), ops[1].keys.size());
  EXPECT_EQ(back[1].keys[2].instance_id, ops[1].keys[2].instance_id);
  EXPECT_EQ(back[1].keys[0].test, ops[1].keys[0].test);
  EXPECT_FALSE(back[2].predict);

  // Corrupt/truncated frames are rejected.
  std::vector<data::ServeOp> junk;
  EXPECT_FALSE(core::read_op_log(frame.data(), frame.size() - 3, junk));
  EXPECT_FALSE(core::read_op_log(frame.data(), 4, junk));
}

// Kind 0 was the retired chunk-diff frame. Its header is otherwise
// well-formed, so readers must reject it by kind, not misread it as an op
// log; unknown kinds are rejected the same way.
TEST(DeltaSuite, ReadDeltaHeaderAcceptsOnlyOpLog) {
  core::DeltaHeader h;
  h.base_hash = 0x1111;
  h.base_len = 22;
  h.next_hash = 0x2222;
  h.next_len = 33;
  core::ByteBuf frame = core::encode_op_log(h, {});
  core::DeltaHeader g;
  ASSERT_TRUE(core::read_delta_header(frame.data(), frame.size(), g));
  EXPECT_EQ(g.kind, core::DeltaKind::kOpLog);

  // Header: u32 magic, u32 version, then the u8 kind.
  constexpr size_t kKindOffset = 8;
  ASSERT_EQ(frame[kKindOffset], static_cast<char>(core::DeltaKind::kOpLog));
  for (const char kind : {0, 2, 0x7F}) {
    SCOPED_TRACE(static_cast<int>(kind));
    frame[kKindOffset] = kind;
    EXPECT_TRUE(core::is_delta_blob(frame.data(), frame.size()));
    EXPECT_FALSE(core::read_delta_header(frame.data(), frame.size(), g));
    std::vector<data::ServeOp> ops;
    EXPECT_FALSE(core::read_op_log(frame.data(), frame.size(), ops));
  }
}

// Op-log frames are read off disk on every restore. Each count in them (ops,
// keys, labels) is forged to the format's limit with no payload behind it:
// the decoder must run out of bytes, not size an allocation from the count.
TEST(DeltaSuite, ForgedCountsWithoutPayloadAreRejected) {
  const core::ByteBuf empty = core::encode_op_log(core::DeltaHeader{}, {});
  // An empty log is the header followed by a u32 op count of 0.
  const std::string header(empty.data(), empty.size() - sizeof(uint32_t));
  auto u32 = [](uint32_t v) {
    return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto i64 = [](int64_t v) {
    return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto parses = [&](const std::string& body) {
    const std::string frame = header + body;
    std::vector<data::ServeOp> ops;
    return core::read_op_log(frame.data(), frame.size(), ops);
  };
  const uint32_t kLimit = 0xFFFFFFFFu;
  const std::string observe(1, '\0'), predict(1, '\1');
  // Controls: the same framing with honest zero counts parses. An observe
  // is its i64 domain, then its key and label counts.
  EXPECT_TRUE(parses(u32(0)));
  EXPECT_TRUE(parses(u32(1) + predict + u32(0)));
  EXPECT_TRUE(parses(u32(1) + observe + i64(0) + u32(0) + u32(0)));

  EXPECT_NO_THROW(EXPECT_FALSE(parses(u32(kLimit)))) << "op count";
  EXPECT_NO_THROW(EXPECT_FALSE(parses(u32(1) + predict + u32(kLimit))))
      << "predict key count";
  EXPECT_NO_THROW(
      EXPECT_FALSE(parses(u32(1) + observe + i64(0) + u32(kLimit))))
      << "batch key count";
  EXPECT_NO_THROW(EXPECT_FALSE(
      parses(u32(1) + observe + i64(0) + u32(0) + u32(kLimit))))
      << "label count";
}

// The three-op log of OpLogRoundTripAndHeader.
std::vector<data::ServeOp> three_ops() {
  std::vector<data::ServeOp> ops(3);
  ops[0].batch.keys = {{1, 0, 2, false}, {3, 1, 4, false}};
  ops[0].batch.labels = {1, 3};
  ops[0].batch.domain = 1;
  ops[1].predict = true;
  ops[1].keys = {{2, 0, 0, true}, {5, 1, 1, true}, {0, 0, 3, true}};
  ops[2].batch.keys = {{4, 1, 0, false}};
  ops[2].batch.labels = {4};
  return ops;
}

// One codec for a batch: an observe op's bytes after its kind byte are the
// wire protocol's OBSERVE payload, and a predict op's are the PREDICT
// payload, whichever byte vector they are written to.
TEST(DeltaSuite, OpsUseTheWirePayloadCodec) {
  const std::vector<data::ServeOp> ops = three_ops();
  const data::Batch& batch = ops[0].batch;
  const std::vector<data::ImageKey>& keys = ops[1].keys;

  std::vector<uint8_t> batch_bytes, key_bytes;
  data::put_batch(batch_bytes, batch);
  data::put_keys(key_bytes, keys);
  ASSERT_EQ(batch_bytes.size(),
            8 + 4 + batch.keys.size() * data::kKeyBytes +
                4 + batch.labels.size() * data::kLabelBytes);
  ASSERT_EQ(key_bytes.size(), 4 + keys.size() * data::kKeyBytes);
  core::ByteBuf pooled;
  data::put_batch(pooled, batch);
  EXPECT_TRUE(std::equal(pooled.begin(), pooled.end(), batch_bytes.begin(),
                         batch_bytes.end()));

  auto payload = [](const net::WireBuf& frame) {
    return std::vector<uint8_t>(frame.begin() + net::kHeaderBytes,
                                frame.end());
  };
  net::WireBuf wire;
  net::encode_observe(wire, 1, 2, batch);
  EXPECT_EQ(payload(wire), batch_bytes);
  wire.clear();
  net::encode_predict(wire, 1, 2, keys);
  EXPECT_EQ(payload(wire), key_bytes);

  // Each one-op log: the header, the u32 op count, the kind byte, then the
  // payload and nothing else.
  const size_t body_at =
      core::encode_op_log(core::DeltaHeader{}, {}).size() + 1;
  for (const auto& [op, bytes] :
       {std::pair{ops[0], batch_bytes}, std::pair{ops[1], key_bytes}}) {
    SCOPED_TRACE(op.predict ? "predict" : "observe");
    const core::ByteBuf frame = core::encode_op_log(core::DeltaHeader{}, {op});
    ASSERT_EQ(frame.size(), body_at + bytes.size());
    EXPECT_EQ(frame[body_at - 1], op.predict ? 1 : 0);
    EXPECT_TRUE(std::equal(frame.begin() + static_cast<ptrdiff_t>(body_at),
                           frame.end(), bytes.begin(), bytes.end()));
  }
}

// Like the wire decoders, read_op_log accepts exactly one frame: every
// strict prefix of a valid log and the log with a byte appended fail.
TEST(DeltaSuite, TruncatedOrPaddedOpLogIsRejected) {
  const core::ByteBuf frame =
      core::encode_op_log(core::DeltaHeader{}, three_ops());
  std::vector<data::ServeOp> ops;
  ASSERT_TRUE(core::read_op_log(frame.data(), frame.size(), ops));
  ASSERT_EQ(ops.size(), 3u);
  for (size_t n = 0; n < frame.size(); ++n) {
    EXPECT_FALSE(core::read_op_log(frame.data(), n, ops)) << "prefix " << n;
  }
  core::ByteBuf padded = frame;
  padded.push_back('\0');
  EXPECT_FALSE(core::read_op_log(padded.data(), padded.size(), ops));
}

// Version 1 frames framed their ops with i64 counts and the batch domain
// last; they fail the version check rather than misparse.
TEST(DeltaSuite, VersionOneFrameIsRejected) {
  core::ByteBuf frame = core::encode_op_log(core::DeltaHeader{}, three_ops());
  core::DeltaHeader h;
  ASSERT_TRUE(core::read_delta_header(frame.data(), frame.size(), h));
  // Header: u32 magic, then the u32 version.
  const uint32_t version = 1;
  std::memcpy(frame.data() + 4, &version, sizeof(version));
  EXPECT_TRUE(core::is_delta_blob(frame.data(), frame.size()));
  EXPECT_FALSE(core::read_delta_header(frame.data(), frame.size(), h));
  std::vector<data::ServeOp> ops;
  EXPECT_FALSE(core::read_op_log(frame.data(), frame.size(), ops));
}

TEST(DeltaSuite, FullBlobIsNotMistakenForDelta) {
  const std::string not_delta = "CHS2 something something";
  EXPECT_FALSE(core::is_delta_blob(not_delta.data(), not_delta.size()));
  core::DeltaHeader h;
  EXPECT_FALSE(core::read_delta_header(not_delta.data(), not_delta.size(), h));
}

}  // namespace
}  // namespace cham
