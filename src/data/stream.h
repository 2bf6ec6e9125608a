// Online continual-learning streams.
//
// DomainIncrementalStream — the paper's evaluation setting (Domain-IL):
// all classes, domains arriving in sequence.
//
// ClassIncrementalStream — the complementary Class-IL setting offered as an
// extension: classes arrive in groups ("tasks") while every domain is mixed
// within a task. Useful for studying Chameleon's class-balanced long-term
// store when the class distribution itself is non-stationary.
//
// Domains arrive strictly in sequence (CORe50 "sessions"). Within a domain,
// samples arrive in short temporally-correlated runs of one class (video
// frames of one object), with the class of each run drawn from a
// user-preference distribution: the k preferred classes are over-sampled by
// `preference_weight`. The preferred set can drift mid-stream, exercising the
// paper's learning-window recalibration.
#pragma once

#include <vector>

#include "data/dataset.h"
#include "util/bytes.h"

namespace cham::data {

struct StreamConfig {
  int64_t batch_size = 10;     // paper setting
  int64_t run_length = 5;      // consecutive frames per object "video"
  // User preference model.
  int64_t num_preferred = 5;   // paper: k = 5
  float preference_weight = 12.0f;  // preferred classes dominate the stream
  bool drift_preferences = true;   // switch preferred set halfway per run
  uint64_t seed = 42;
};

struct Batch {
  std::vector<ImageKey> keys;
  std::vector<int64_t> labels;
  int64_t domain = 0;
};

// One request a serving session executed: an observe (carrying its batch) or
// a predict (carrying its query keys). The write-behind checkpoint pipeline
// (src/serve/) logs observes between full-blob flushes; replaying the log on
// top of the base blob reconstructs the evicted state bit-identically, which
// is usually far smaller than shipping the state itself. Predicts are state-
// and stats-pure, so the serving runtime never logs them; the predict form
// stays in the CHS3 byte format because external writers carry it, and a
// restore skips such ops as no-ops.
struct ServeOp {
  bool predict = false;
  Batch batch;                 // observe payload (unused for predicts)
  std::vector<ImageKey> keys;  // predict payload (unused for observes)
};

// --- The byte codec for batches and key lists ------------------------------
//
// Little-endian (util/bytes.h) with u32 counts. A key is 13 bytes: i32
// class, i32 domain, i32 instance, u8 test. A key list is its u32 count and
// its keys; a batch is its i64 domain, its key list, a u32 label count and
// the i64 labels. These are the PREDICT and OBSERVE payloads of the wire
// protocol (net/protocol.h) and the op bodies of the CHS3 op-log frames
// (core/checkpoint.h), so one decoder reads both.
//
// Both formats are parsed from untrusted bytes. The decoders check a count
// against the bytes left before any resize (a forged count fails cleanly,
// it never sizes an allocation), resize their outputs in place (a warm
// decode reuses capacity and allocates nothing) and return false on a short
// read. They do not require the reader to be exhausted: the frame's decoder
// checks Reader::done() once it has read everything the frame holds.
inline constexpr std::size_t kKeyBytes = 13;   // 3x i32 + test u8
inline constexpr std::size_t kLabelBytes = 8;  // i64

template <typename Buf>
void put_keys(Buf& out, const std::vector<ImageKey>& keys) {
  util::put_u32(out, static_cast<uint32_t>(keys.size()));
  for (const ImageKey& k : keys) {
    util::put_i32(out, k.class_id);
    util::put_i32(out, k.domain_id);
    util::put_i32(out, k.instance_id);
    util::put_u8(out, k.test ? 1 : 0);
  }
}

template <typename Buf>
void put_batch(Buf& out, const Batch& batch) {
  util::put_i64(out, batch.domain);
  put_keys(out, batch.keys);
  util::put_u32(out, static_cast<uint32_t>(batch.labels.size()));
  for (const int64_t label : batch.labels) util::put_i64(out, label);
}

bool get_keys(util::Reader& r, std::vector<ImageKey>& out);
bool get_batch(util::Reader& r, Batch& out);

// Materialised stream: the full ordered list of batches for one experiment
// run. Total length matches one pass over the training pool (paper: each
// sample passes through the model only once); preferred classes appear more
// often, others less, preserving the total sample count.
class DomainIncrementalStream {
 public:
  DomainIncrementalStream(const DatasetConfig& data_cfg,
                          const StreamConfig& stream_cfg);

  int64_t num_batches() const { return static_cast<int64_t>(batches_.size()); }
  const Batch& batch(int64_t i) const {
    return batches_[static_cast<size_t>(i)];
  }
  const std::vector<Batch>& batches() const { return batches_; }

  // Ground-truth preferred classes per domain (for evaluation of the
  // preference tracker; the learners never see this).
  const std::vector<std::vector<int64_t>>& preferred_by_domain() const {
    return preferred_by_domain_;
  }

  int64_t total_samples() const { return total_samples_; }

 private:
  std::vector<Batch> batches_;
  std::vector<std::vector<int64_t>> preferred_by_domain_;
  int64_t total_samples_ = 0;
};

// --- Multi-user serving workloads -----------------------------------------
//
// The serving runtime (src/serve/) multiplexes many per-user learners; its
// benchmarks and tests need a realistic arrival schedule. Web-scale traffic
// is heavily skewed — a few hot users dominate while a long tail of cold
// sessions trickles in — which is exactly the regime that exercises
// checkpoint-backed eviction (cold sessions fall out of the resident pool
// and must restore bit-identically later).

struct MultiUserConfig {
  int64_t num_sessions = 50;
  int64_t events = 2000;  // total submissions across all sessions
  double zipf_s = 1.1;    // Zipf exponent over session rank; 0 = uniform
  // Fraction of events that are predicts instead of observes (drawn i.i.d.
  // per event). Predict-heavy traffic is the regime where chunk-diff delta
  // checkpoints win: predicts mutate only the traffic ledger.
  double predict_fraction = 0.0;
  uint64_t seed = 7;
};

// One serving arrival: session `session` submits its next batch, the
// `batch_index`-th of its private stream (a per-session running counter, so
// replaying the schedule through isolated learners is trivial). Predict
// events do not consume a batch index; batch_index then counts the observes
// submitted so far (the stream position the predict sees).
struct SessionEvent {
  int64_t session = 0;
  int64_t batch_index = 0;
  bool predict = false;
};

// Draws `events` sessions i.i.d. from Zipf(zipf_s) over session ranks
// 0..num_sessions-1 (rank 0 hottest) and assigns per-session batch indices
// in arrival order. Deterministic in the seed.
std::vector<SessionEvent> make_zipf_schedule(const MultiUserConfig& cfg);

struct ClassIncrementalConfig {
  int64_t classes_per_task = 10;
  int64_t batch_size = 10;
  int64_t run_length = 5;
  uint64_t seed = 43;
};

// Classes arrive in disjoint groups; within a task, samples mix all domains
// of the task's classes in temporally-correlated runs.
class ClassIncrementalStream {
 public:
  ClassIncrementalStream(const DatasetConfig& data_cfg,
                         const ClassIncrementalConfig& cfg);

  int64_t num_batches() const { return static_cast<int64_t>(batches_.size()); }
  const Batch& batch(int64_t i) const {
    return batches_[static_cast<size_t>(i)];
  }
  const std::vector<Batch>& batches() const { return batches_; }
  int64_t num_tasks() const { return num_tasks_; }
  // Classes introduced by task t.
  const std::vector<int64_t>& task_classes(int64_t t) const {
    return task_classes_[static_cast<size_t>(t)];
  }

 private:
  std::vector<Batch> batches_;
  std::vector<std::vector<int64_t>> task_classes_;
  int64_t num_tasks_ = 0;
};

}  // namespace cham::data
