// Multi-session serving runtime: sharded learner pool with
// checkpoint-backed session eviction (src/serve/).
//
// The load-bearing property is EVICTION FIDELITY: for a randomized schedule
// of many sessions with forced evictions, every session's final head
// weights, replay-store contents and prediction outputs must be
// bit-identical to the same session run in isolation. Everything else
// (backpressure, RNG independence, threaded dispatch) supports that
// contract.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <span>
#include <thread>
#include <vector>

#include "core/chameleon.h"
#include "core/checkpoint.h"
#include "metrics/experiment.h"
#include "serve/session_manager.h"
#include "serve/session_store.h"
#include "tensor/workspace.h"
#include "util/check.h"
#include "util/tmp_path.h"

namespace cham {
namespace {

class ServeSuite : public ::testing::Test {
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
  }
  static void TearDownTestSuite() {
    delete exp_;
    exp_ = nullptr;
  }

  static core::ChameleonConfig learner_config() {
    core::ChameleonConfig cc;
    cc.lt_capacity = 18;
    return cc;
  }

  static serve::LearnerFactory factory() {
    return [](uint64_t /*session_id*/, uint64_t seed) {
      return std::make_unique<core::ChameleonLearner>(exp_->env(),
                                                      learner_config(), seed);
    };
  }

  // One private stream per session (distinct orderings over the shared
  // pool, so the latent cache warms once).
  static std::vector<data::Batch> session_batches(int64_t session,
                                                  uint64_t salt = 0) {
    data::StreamConfig sc = exp_->config().stream;
    sc.seed = 1000 + static_cast<uint64_t>(session) * 7919 + salt;
    data::DomainIncrementalStream stream(exp_->config().data, sc);
    exp_->warm_latents(stream);
    return stream.batches();
  }

  // Submits with drain-on-reject: backpressure tells us to make room, the
  // deterministic scheduler makes room by dispatching.
  static void submit_or_drain(serve::SessionManager& mgr, uint64_t sid,
                              const data::Batch& batch) {
    for (;;) {
      const serve::Admission adm = mgr.submit_observe(sid, batch);
      if (adm.accepted) return;
      EXPECT_GT(adm.retry_after_ms, 0);
      mgr.drain();
    }
  }

  static void expect_bit_identical(core::ChameleonLearner& a,
                                   core::ChameleonLearner& b,
                                   const std::string& what) {
    SCOPED_TRACE(what);
    // Head weights, byte for byte.
    auto pa = a.head().params();
    auto pb = b.head().params();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) {
      ASSERT_EQ(pa[i]->value.numel(), pb[i]->value.numel());
      EXPECT_EQ(std::memcmp(pa[i]->value.data(), pb[i]->value.data(),
                            static_cast<size_t>(pa[i]->value.numel()) *
                                sizeof(float)),
                0)
          << "head param " << i << " differs";
    }
    // Short-term store contents.
    ASSERT_EQ(a.short_term().size(), b.short_term().size());
    for (int64_t i = 0; i < a.short_term().size(); ++i) {
      const auto& sta = a.short_term().store();
      const auto& stb = b.short_term().store();
      EXPECT_EQ(sta.label(i), stb.label(i)) << "ST slot " << i;
      ASSERT_EQ(sta.row_numel(), stb.row_numel());
      EXPECT_EQ(std::memcmp(sta.row(i), stb.row(i),
                            static_cast<size_t>(sta.row_numel()) *
                                sizeof(float)),
                0)
          << "ST latent " << i << " differs";
    }
    // Long-term store contents: every class's keys, labels and rows in
    // slot order, compared as the stores' own frames.
    core::ByteBuf la, lb;
    a.long_term().save(la);
    b.long_term().save(lb);
    EXPECT_TRUE(la == lb) << "LT contents differ";
    // Preference statistics, including mid-window counters.
    EXPECT_EQ(a.preferences().samples_seen(), b.preferences().samples_seen());
    EXPECT_EQ(a.preferences().window_seen(), b.preferences().window_seen());
    EXPECT_EQ(a.preferences().recalibrations(),
              b.preferences().recalibrations());
    EXPECT_EQ(a.preferences().delta_k(), b.preferences().delta_k());
    EXPECT_EQ(a.preferences().preferred_classes(),
              b.preferences().preferred_classes());
    EXPECT_EQ(a.steps_observed(), b.steps_observed());
    // Traffic ledger.
    EXPECT_EQ(a.stats().onchip_bytes, b.stats().onchip_bytes);
    EXPECT_EQ(a.stats().offchip_bytes, b.stats().offchip_bytes);
  }

  // The learner's full CHS2 blob.
  static core::ByteBuf blob_of(const core::ChameleonLearner& learner) {
    core::ByteBuf blob;
    EXPECT_TRUE(learner.save_state(blob));
    return blob;
  }

  static bool put_learner(serve::SessionStore& store, uint64_t sid,
                          const core::ChameleonLearner& learner) {
    const core::ByteBuf blob = blob_of(learner);
    return store.put_full(sid, blob.data(), blob.size());
  }

  // The store's on-disk names for a session's full blob and delta frame.
  static std::string blob_path(const std::string& dir, uint64_t sid) {
    return dir + "/session_" + std::to_string(sid) + ".chk";
  }
  static std::string delta_path(const std::string& dir, uint64_t sid) {
    return dir + "/session_" + std::to_string(sid) + ".delta";
  }

  static metrics::Experiment* exp_;
};

metrics::Experiment* ServeSuite::exp_ = nullptr;

// ---------------------------------------------------------------------------
// Acceptance gate: randomized schedule of >= 20 sessions, a resident pool
// far smaller than the session count (forced evictions), every session
// bit-identical to isolation at the end.
TEST_F(ServeSuite, EvictionFidelityAcrossRandomizedSchedule) {
  constexpr int64_t kSessions = 22;
  serve::ServeConfig sc;
  sc.num_shards = 3;
  sc.max_resident = 4;  // << kSessions: every session cycles through disk
  sc.queue_capacity = 8;
  sc.store_dir = util::tmp_path("serve_fidelity");
  sc.base_seed = 7;
  sc.mode = serve::ServeMode::kDeterministic;
  serve::SessionStore(sc.store_dir).clear();

  std::vector<std::vector<data::Batch>> batches;
  for (int64_t s = 0; s < kSessions; ++s) {
    batches.push_back(session_batches(s));
  }

  // Zipf-skewed randomized interleaving, plus one guaranteed event per
  // session so every session participates.
  data::MultiUserConfig mc;
  mc.num_sessions = kSessions;
  mc.events = 140;
  mc.zipf_s = 0.9;
  mc.seed = 11;
  auto schedule = data::make_zipf_schedule(mc);
  std::vector<int64_t> next_index(kSessions, 0);
  std::vector<std::vector<data::Batch>> submitted(kSessions);
  {
    serve::SessionManager mgr(sc, factory());
    auto submit_next = [&](int64_t session) {
      const auto& pool = batches[static_cast<size_t>(session)];
      const auto& batch = pool[static_cast<size_t>(
          next_index[static_cast<size_t>(session)] %
          static_cast<int64_t>(pool.size()))];
      ++next_index[static_cast<size_t>(session)];
      submitted[static_cast<size_t>(session)].push_back(batch);
      submit_or_drain(mgr, static_cast<uint64_t>(session), batch);
    };
    for (const auto& ev : schedule) submit_next(ev.session);
    for (int64_t s = 0; s < kSessions; ++s) submit_next(s);
    mgr.flush();

    const serve::ServeStats st = mgr.stats();
    EXPECT_GT(st.evictions, kSessions);  // pool of 4 must thrash
    EXPECT_GT(st.restores, 0);
    EXPECT_EQ(st.observes, st.admissions);
    EXPECT_LE(st.resident_high_water, sc.max_resident);

    // Every session: restore from the store and compare against the same
    // stream run in isolation with the session's derived seed.
    serve::SessionStore reader(sc.store_dir);
    const auto test_keys = data::all_test_keys(exp_->config().data);
    for (int64_t s = 0; s < kSessions; ++s) {
      core::ChameleonLearner restored(exp_->env(), learner_config(),
                                      /*seed=*/0xDEAD);
      ASSERT_TRUE(reader.load(static_cast<uint64_t>(s), restored))
          << "session " << s << " missing from store";
      core::ChameleonLearner isolated(
          exp_->env(), learner_config(),
          mgr.session_seed(static_cast<uint64_t>(s)));
      for (const auto& b : submitted[static_cast<size_t>(s)]) {
        isolated.observe(b);
      }
      expect_bit_identical(restored, isolated,
                           "session " + std::to_string(s));
      EXPECT_EQ(restored.predict(test_keys), isolated.predict(test_keys))
          << "prediction outputs differ for session " << s;
    }
  }
}

// Per-session results must not depend on how sessions interleave: the same
// per-session work submitted in two very different global orders produces
// byte-identical per-session state.
TEST_F(ServeSuite, AdmissionOrderDoesNotChangePerSessionResults) {
  constexpr int64_t kSessions = 6;
  constexpr int64_t kBatchesPerSession = 4;

  std::vector<std::vector<data::Batch>> batches;
  for (int64_t s = 0; s < kSessions; ++s) {
    batches.push_back(session_batches(s, /*salt=*/77));
  }

  auto run_order = [&](const std::string& dir, bool reversed) {
    serve::ServeConfig sc;
    sc.num_shards = 2;
    sc.max_resident = 2;
    sc.queue_capacity = 4;
    sc.store_dir = dir;
    sc.base_seed = 21;
    serve::SessionStore(dir).clear();
    serve::SessionManager mgr(sc, factory());
    for (int64_t b = 0; b < kBatchesPerSession; ++b) {
      for (int64_t i = 0; i < kSessions; ++i) {
        const int64_t s = reversed ? kSessions - 1 - i : i;
        submit_or_drain(mgr, static_cast<uint64_t>(s),
                        batches[static_cast<size_t>(s)][static_cast<size_t>(
                            b % static_cast<int64_t>(
                                    batches[static_cast<size_t>(s)].size()))]);
      }
      if (b % 2 == 1) mgr.drain();
    }
    mgr.flush();
  };

  run_order(util::tmp_path("serve_order_a"), false);
  run_order(util::tmp_path("serve_order_b"), true);

  serve::SessionStore a(util::tmp_path("serve_order_a"));
  serve::SessionStore b(util::tmp_path("serve_order_b"));
  for (int64_t s = 0; s < kSessions; ++s) {
    core::ChameleonLearner la(exp_->env(), learner_config(), 0x1);
    core::ChameleonLearner lb(exp_->env(), learner_config(), 0x2);
    ASSERT_TRUE(a.load(static_cast<uint64_t>(s), la));
    ASSERT_TRUE(b.load(static_cast<uint64_t>(s), lb));
    expect_bit_identical(la, lb, "session " + std::to_string(s));
  }
}

// Satellite: per-session RNG streams are derived by hashing, not by
// admission order — distinct ids get distinct seeds, and the same id always
// gets the same seed.
TEST_F(ServeSuite, SessionSeedsAreStableAndDistinct) {
  serve::ServeConfig sc;
  sc.num_shards = 1;
  sc.max_resident = 1;
  sc.store_dir = util::tmp_path("serve_seeds");
  sc.base_seed = 123;
  serve::SessionManager mgr(sc, factory());
  std::vector<uint64_t> seeds;
  for (uint64_t s = 0; s < 256; ++s) seeds.push_back(mgr.session_seed(s));
  for (size_t i = 0; i < seeds.size(); ++i) {
    for (size_t j = i + 1; j < seeds.size(); ++j) {
      ASSERT_NE(seeds[i], seeds[j]) << "seed collision " << i << "," << j;
    }
  }
  EXPECT_EQ(mgr.session_seed(42), mgr.session_seed(42));
  // Different base seeds decorrelate the whole pool.
  EXPECT_NE(split_seed(1, 42), split_seed(2, 42));
}

// Backpressure: a full shard queue rejects with a retry hint instead of
// growing; draining makes room again.
TEST_F(ServeSuite, BoundedQueueRejectsWithRetryHint) {
  serve::ServeConfig sc;
  sc.num_shards = 1;
  sc.max_resident = 1;
  sc.queue_capacity = 2;
  sc.retry_hint_ms = 9;
  sc.store_dir = util::tmp_path("serve_backpressure");
  serve::SessionStore(sc.store_dir).clear();
  serve::SessionManager mgr(sc, factory());

  const auto batches = session_batches(0);
  EXPECT_TRUE(mgr.submit_observe(5, batches[0]).accepted);
  EXPECT_TRUE(mgr.submit_observe(5, batches[1]).accepted);
  const serve::Admission rejected = mgr.submit_observe(5, batches[2]);
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.retry_after_ms, 9);
  EXPECT_EQ(rejected.queue_depth, 2);

  mgr.drain();
  EXPECT_TRUE(mgr.submit_observe(5, batches[2]).accepted);
  mgr.drain();

  const serve::ServeStats st = mgr.stats();
  EXPECT_EQ(st.rejections, 1);
  EXPECT_EQ(st.admissions, 3);
  EXPECT_EQ(st.observes, 3);
  EXPECT_EQ(st.queue_depth_high_water, 2);
}

// Predict is FIFO-ordered behind the session's pending observes
// (read-your-writes) and matches an isolated learner's outputs.
TEST_F(ServeSuite, PredictSeesPendingObserves) {
  serve::ServeConfig sc;
  sc.num_shards = 2;
  sc.max_resident = 2;
  sc.queue_capacity = 16;
  sc.store_dir = util::tmp_path("serve_predict");
  sc.base_seed = 5;
  serve::SessionStore(sc.store_dir).clear();
  serve::SessionManager mgr(sc, factory());

  const auto batches = session_batches(3);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(mgr.submit_observe(9, batches[static_cast<size_t>(i)])
                    .accepted);
  }
  const auto test_keys = data::all_test_keys(exp_->config().data);
  const auto served = mgr.predict(9, test_keys);  // no explicit drain
  ASSERT_TRUE(served.has_value());

  core::ChameleonLearner isolated(exp_->env(), learner_config(),
                                  mgr.session_seed(9));
  for (int i = 0; i < 3; ++i) {
    isolated.observe(batches[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(*served, isolated.predict(test_keys));

  const serve::ServeStats st = mgr.stats();
  EXPECT_EQ(st.observes, 3);
  EXPECT_EQ(st.predicts, 1);
}

// Threaded mode: per-session results stay bit-identical to isolation even
// with real cross-shard concurrency.
TEST_F(ServeSuite, ThreadedModeMatchesIsolation) {
  constexpr int64_t kSessions = 8;
  constexpr int64_t kBatchesPerSession = 3;
  serve::ServeConfig sc;
  sc.num_shards = 4;
  sc.max_resident = 5;
  sc.queue_capacity = 8;
  sc.store_dir = util::tmp_path("serve_threaded");
  sc.base_seed = 31;
  sc.mode = serve::ServeMode::kThreaded;
  serve::SessionStore(sc.store_dir).clear();

  std::vector<std::vector<data::Batch>> batches;
  for (int64_t s = 0; s < kSessions; ++s) {
    batches.push_back(session_batches(s, /*salt=*/31));
  }
  {
    serve::SessionManager mgr(sc, factory());
    for (int64_t b = 0; b < kBatchesPerSession; ++b) {
      for (int64_t s = 0; s < kSessions; ++s) {
        for (;;) {
          if (mgr.submit_observe(static_cast<uint64_t>(s),
                                 batches[static_cast<size_t>(s)]
                                        [static_cast<size_t>(b)])
                  .accepted) {
            break;
          }
          // Workers drain continuously; brief yield and retry.
          std::this_thread::yield();
        }
      }
    }
    mgr.flush();

    serve::SessionStore reader(sc.store_dir);
    for (int64_t s = 0; s < kSessions; ++s) {
      core::ChameleonLearner restored(exp_->env(), learner_config(), 0xF00);
      ASSERT_TRUE(reader.load(static_cast<uint64_t>(s), restored));
      core::ChameleonLearner isolated(
          exp_->env(), learner_config(),
          mgr.session_seed(static_cast<uint64_t>(s)));
      for (int64_t b = 0; b < kBatchesPerSession; ++b) {
        isolated.observe(batches[static_cast<size_t>(s)]
                                [static_cast<size_t>(b)]);
      }
      expect_bit_identical(restored, isolated,
                           "threaded session " + std::to_string(s));
    }
  }
}

// SessionStore basics: blobs round-trip byte for byte under decimal-id
// file names, load() restores them, and clear() removes blobs and deltas.
TEST_F(ServeSuite, SessionStoreLifecycle) {
  const std::string dir = util::tmp_path("serve_store");
  serve::SessionStore store(dir);
  store.clear();
  EXPECT_FALSE(store.contains(4));
  core::ByteBuf got;
  EXPECT_FALSE(store.get_blob(4, got));

  core::ChameleonLearner learner(exp_->env(), learner_config(), 17);
  const auto batches = session_batches(1);
  learner.observe(batches[0]);
  const core::ByteBuf blob = blob_of(learner);
  ASSERT_TRUE(store.put_full(4, blob.data(), blob.size()));
  ASSERT_TRUE(store.put_full(9000000007ull, blob.data(), blob.size()));
  EXPECT_TRUE(store.contains(4));
  EXPECT_TRUE(std::filesystem::exists(blob_path(dir, 9000000007ull)));
  EXPECT_EQ(store.bytes_written(), static_cast<int64_t>(2 * blob.size()));
  ASSERT_TRUE(store.get_blob(4, got));
  EXPECT_TRUE(got == blob);

  core::ChameleonLearner other(exp_->env(), learner_config(), 99);
  serve::SessionStore::LoadInfo info;
  ASSERT_TRUE(store.load(4, other, &info));
  expect_bit_identical(learner, other, "store round trip");
  EXPECT_EQ(info.replayed_ops, 0);
  EXPECT_FALSE(info.applied_delta);

  // A delta needs a base; clear() removes both kinds of file.
  EXPECT_FALSE(store.put_delta(5, blob.data(), 1));
  ASSERT_TRUE(store.put_delta(4, blob.data(), 1));
  EXPECT_TRUE(std::filesystem::exists(delta_path(dir, 4)));
  store.clear();
  EXPECT_FALSE(store.contains(4));
  EXPECT_FALSE(store.contains(9000000007ull));
  EXPECT_FALSE(std::filesystem::exists(delta_path(dir, 4)));
}

// The Zipf schedule helper: deterministic in the seed, skewed toward low
// ranks, and per-session batch indices count up densely.
TEST_F(ServeSuite, ZipfScheduleShape) {
  data::MultiUserConfig mc;
  mc.num_sessions = 20;
  mc.events = 2000;
  mc.zipf_s = 1.2;
  mc.seed = 3;
  const auto a = data::make_zipf_schedule(mc);
  const auto b = data::make_zipf_schedule(mc);
  ASSERT_EQ(a.size(), 2000u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].session, b[i].session);
    EXPECT_EQ(a[i].batch_index, b[i].batch_index);
  }
  std::vector<int64_t> counts(20, 0), next(20, 0);
  for (const auto& ev : a) {
    ASSERT_GE(ev.session, 0);
    ASSERT_LT(ev.session, 20);
    EXPECT_EQ(ev.batch_index, next[static_cast<size_t>(ev.session)]++);
    ++counts[static_cast<size_t>(ev.session)];
  }
  EXPECT_GT(counts[0], counts[19] * 2) << "rank 0 should dominate the tail";
}

// ---------------------------------------------------------------------------
// Write-behind eviction pipeline + serve-path failure handling.

// A learner whose predict() (and, with a second arm, observe()) can be
// armed to throw, for fault injection through the virtual dispatch path the
// manager uses. The armed observe throws before touching any state.
class ThrowingLearner : public core::ChameleonLearner {
 public:
  ThrowingLearner(const core::LearnerEnv& env,
                  const core::ChameleonConfig& cfg, uint64_t seed,
                  std::shared_ptr<std::atomic<bool>> arm,
                  std::shared_ptr<std::atomic<bool>> observe_arm = nullptr)
      : core::ChameleonLearner(env, cfg, seed),
        arm_(std::move(arm)),
        observe_arm_(std::move(observe_arm)) {}
  void observe(const data::Batch& batch) override {
    if (observe_arm_ && observe_arm_->load()) {
      throw util::CheckError("injected observe failure");
    }
    core::ChameleonLearner::observe(batch);
  }
  // predict_batch is the single funnel both the plain predict() path and
  // the serve batch planner flow through — overriding it injects the
  // failure into either.
  std::vector<int64_t> predict_batch(
      std::span<const data::ImageKey> keys) override {
    if (arm_->load()) throw util::CheckError("injected predict failure");
    return core::ChameleonLearner::predict_batch(keys);
  }

 private:
  std::shared_ptr<std::atomic<bool>> arm_;
  std::shared_ptr<std::atomic<bool>> observe_arm_;
};

// Satellite bugfix: a failed write (disk full) must never replace a valid
// blob with a truncated one. The temp file is diverted to /dev/full so every
// write fails with ENOSPC before the rename.
TEST_F(ServeSuite, SaveFailureLeavesOldBlobIntact) {
  const std::string dir = util::tmp_path("serve_diskfull");
  serve::SessionStore store(dir);
  store.clear();
  const auto batches = session_batches(2);
  core::ChameleonLearner learner(exp_->env(), learner_config(), 17);
  learner.observe(batches[0]);
  ASSERT_TRUE(put_learner(store, 7, learner));

  // Divert the next temp file to a device that rejects all writes.
  const std::string tmp = dir + "/session_7.chk.tmp";
  ASSERT_EQ(::symlink("/dev/full", tmp.c_str()), 0) << "symlink failed";
  learner.observe(batches[1]);
  EXPECT_FALSE(put_learner(store, 7, learner))
      << "ENOSPC write must fail the save";

  // The pre-failure blob is still installed, complete, and loadable.
  core::ChameleonLearner as_of_first_save(exp_->env(), learner_config(), 17);
  as_of_first_save.observe(batches[0]);
  core::ChameleonLearner restored(exp_->env(), learner_config(), 99);
  ASSERT_TRUE(store.load(7, restored));
  expect_bit_identical(as_of_first_save, restored, "blob after failed save");

  // The failed attempt cleaned up its temp link; a retry succeeds.
  ASSERT_TRUE(put_learner(store, 7, learner));
  core::ChameleonLearner after(exp_->env(), learner_config(), 98);
  ASSERT_TRUE(store.load(7, after));
  expect_bit_identical(learner, after, "blob after retried save");
  store.clear();
}

// A write-behind flush that failed leaves the session's newest state only
// in the snapshot cache. flush() must retry it once the disk recovers: the
// eviction's full write hits /dev/full (see SaveFailureLeavesOldBlobIntact),
// and after the link is gone, flush() lands the cached blob, which loads
// bit-identically.
TEST_F(ServeSuite, FlushRetriesFailedWriteBehindFlush) {
  serve::ServeConfig sc;
  sc.num_shards = 1;
  sc.max_resident = 1;  // touching session 1 evicts session 0
  sc.store_dir = util::tmp_path("serve_flush_retry");
  serve::SessionStore(sc.store_dir).clear();
  const auto batches = session_batches(11);
  const auto test_keys = data::all_test_keys(exp_->config().data);
  serve::SessionManager mgr(sc, factory());

  const std::string tmp = blob_path(sc.store_dir, 0) + ".tmp";
  ASSERT_EQ(::symlink("/dev/full", tmp.c_str()), 0) << "symlink failed";
  submit_or_drain(mgr, 0, batches[0]);
  mgr.drain();
  ASSERT_TRUE(mgr.predict(1, test_keys).has_value());  // evicts 0, dirty
  mgr.write_behind().drain();
  EXPECT_EQ(mgr.stats().wb_flush_errors, 1);
  EXPECT_FALSE(mgr.store().contains(0));

  // The failed write unlinked its temp name, link included: the disk has
  // recovered.
  ASSERT_FALSE(std::filesystem::is_symlink(tmp));
  mgr.flush();
  EXPECT_EQ(mgr.stats().wb_flush_errors, 1);
  core::ChameleonLearner isolated(exp_->env(), learner_config(),
                                  mgr.session_seed(0));
  isolated.observe(batches[0]);
  core::ChameleonLearner restored(exp_->env(), learner_config(), 0xBEEF);
  ASSERT_TRUE(serve::SessionStore(sc.store_dir).load(0, restored));
  expect_bit_identical(restored, isolated, "retried flush");
  serve::SessionStore(sc.store_dir).clear();
}

// Satellite bugfix: an exception inside dispatch must reach the predict()
// caller through the promise — not leave it unfulfilled (caller hangs
// forever) or kill the shard worker. After the failure the session is
// unpinned and both scheduler modes keep serving.
TEST_F(ServeSuite, PredictExceptionPropagatesWithoutHanging) {
  auto arm = std::make_shared<std::atomic<bool>>(false);
  serve::LearnerFactory throwing_factory =
      [arm](uint64_t /*session_id*/, uint64_t seed) {
        return std::unique_ptr<core::ChameleonLearner>(
            std::make_unique<ThrowingLearner>(exp_->env(), learner_config(),
                                              seed, arm));
      };
  const auto batches = session_batches(4);
  const auto test_keys = data::all_test_keys(exp_->config().data);

  for (const auto mode :
       {serve::ServeMode::kDeterministic, serve::ServeMode::kThreaded}) {
    SCOPED_TRACE(mode == serve::ServeMode::kThreaded ? "threaded"
                                                     : "deterministic");
    serve::ServeConfig sc;
    sc.num_shards = 2;
    sc.max_resident = 2;
    sc.queue_capacity = 8;
    sc.store_dir = util::tmp_path("serve_throw");
    sc.mode = mode;
    serve::SessionStore(sc.store_dir).clear();
    serve::SessionManager mgr(sc, throwing_factory);

    while (!mgr.submit_observe(8, batches[0]).accepted) mgr.drain();
    arm->store(true);
    EXPECT_THROW((void)mgr.predict(8, test_keys), util::CheckError);
    arm->store(false);

    // Worker survived, pin released: the same session serves again.
    const auto after = mgr.predict(8, test_keys);
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->size(), test_keys.size());
    mgr.flush();
    const serve::ServeStats st = mgr.stats();
    EXPECT_EQ(st.dispatch_errors, 1);
    EXPECT_EQ(st.predicts, 1);  // only the successful one counts
  }
}

// One error rule in both scheduler modes: a failed observe is counted in
// dispatch_errors, drain() returns normally (deterministic mode used to
// rethrow), the session's op log is invalidated so its next eviction writes
// a full blob instead of an op-log delta, and the session keeps serving
// bit-exact predicts.
TEST_F(ServeSuite, ObserveFailureCountedAndLogInvalidatedInBothModes) {
  auto predict_arm = std::make_shared<std::atomic<bool>>(false);
  auto observe_arm = std::make_shared<std::atomic<bool>>(false);
  serve::LearnerFactory throwing_factory =
      [predict_arm, observe_arm](uint64_t /*session_id*/, uint64_t seed) {
        return std::unique_ptr<core::ChameleonLearner>(
            std::make_unique<ThrowingLearner>(exp_->env(), learner_config(),
                                              seed, predict_arm, observe_arm));
      };
  const auto batches = session_batches(5);
  ASSERT_GE(batches.size(), 2u);
  const auto test_keys = data::all_test_keys(exp_->config().data);

  for (const auto mode :
       {serve::ServeMode::kDeterministic, serve::ServeMode::kThreaded}) {
    SCOPED_TRACE(mode == serve::ServeMode::kThreaded ? "threaded"
                                                     : "deterministic");
    serve::ServeConfig sc;
    sc.num_shards = 1;
    sc.max_resident = 1;  // touching session 9 evicts session 8
    sc.store_dir = util::tmp_path("serve_throw_observe");
    sc.mode = mode;
    serve::SessionStore(sc.store_dir).clear();
    serve::SessionManager mgr(sc, throwing_factory);

    // Session 8 gets a base blob on disk; a later clean eviction of it
    // would be an op-log delta on top of that base.
    submit_or_drain(mgr, 8, batches[0]);
    submit_or_drain(mgr, 9, batches[0]);
    mgr.drain();

    observe_arm->store(true);
    submit_or_drain(mgr, 8, batches[1]);
    EXPECT_NO_THROW(mgr.drain());
    observe_arm->store(false);
    EXPECT_EQ(mgr.stats().dispatch_errors, 1);

    mgr.write_behind().drain();
    const serve::ServeStats before = mgr.stats();
    submit_or_drain(mgr, 9, batches[1]);  // evicts session 8
    mgr.drain();
    mgr.write_behind().drain();
    const serve::ServeStats after = mgr.stats();
    EXPECT_EQ(after.wb_full_saves, before.wb_full_saves + 1)
        << "eviction after a failed observe must write a full blob";
    EXPECT_EQ(after.wb_oplog_saves, before.wb_oplog_saves)
        << "an invalidated op log must not be encoded as a delta";

    // The throw happened before the learner changed: the session holds
    // exactly its first batch.
    const auto got = mgr.predict(8, test_keys);
    ASSERT_TRUE(got.has_value());
    core::ChameleonLearner iso(exp_->env(), learner_config(),
                               mgr.session_seed(8));
    iso.observe(batches[0]);
    EXPECT_EQ(*got, iso.predict(test_keys));
    EXPECT_EQ(mgr.stats().dispatch_errors, 1);
  }
  serve::SessionStore(util::tmp_path("serve_throw_observe")).clear();
}

// Tentpole: a restore racing its own write-behind flush must read the
// pending snapshot bit-identically. The IO thread is frozen so every
// eviction's flush stays pending and every restore is forced through the
// in-memory pipeline, never disk.
TEST_F(ServeSuite, RestoreDuringPendingFlushIsBitExact) {
  constexpr int kRounds = 3;
  serve::ServeConfig sc;
  sc.num_shards = 1;
  sc.max_resident = 1;  // every session switch evicts
  sc.queue_capacity = 4;
  sc.store_dir = util::tmp_path("serve_pending");
  sc.base_seed = 77;
  serve::SessionStore(sc.store_dir).clear();
  serve::SessionManager mgr(sc, factory());

  std::vector<std::vector<data::Batch>> batches;
  for (int64_t s = 0; s < 2; ++s) batches.push_back(session_batches(s));

  mgr.write_behind().pause_for_test();
  for (int round = 0; round < kRounds; ++round) {
    for (uint64_t s = 0; s < 2; ++s) {
      submit_or_drain(mgr, s, batches[s][static_cast<size_t>(round)]);
      mgr.drain();
    }
  }
  const serve::ServeStats mid = mgr.stats();
  EXPECT_GT(mid.pending_restores, 0) << "restores must hit the frozen queue";
  EXPECT_EQ(mid.disk_restores, 0);
  mgr.write_behind().resume_for_test();
  mgr.flush();

  serve::SessionStore reader(sc.store_dir);
  for (uint64_t s = 0; s < 2; ++s) {
    core::ChameleonLearner restored(exp_->env(), learner_config(), 0xBEEF);
    ASSERT_TRUE(reader.load(s, restored));
    core::ChameleonLearner isolated(exp_->env(), learner_config(),
                                    mgr.session_seed(s));
    for (int round = 0; round < kRounds; ++round) {
      isolated.observe(batches[s][static_cast<size_t>(round)]);
    }
    expect_bit_identical(restored, isolated,
                         "pending-restore session " + std::to_string(s));
  }
}

// A session that has served only predicts since it was materialised is
// clean: its eviction writes nothing, because its newest bytes are already
// where it came from. Here that is the write-behind queue itself: session 0
// is evicted dirty into a frozen pipeline, restored from the pending
// snapshot, serves predicts only, and is evicted again — the pending
// snapshot must stay the very same buffer (no resubmission) and still
// restore bit-identically once it lands.
TEST_F(ServeSuite, PredictOnlyEvictionDuringPendingFlushRestoresBitIdentically) {
  const auto batches = session_batches(9);
  const auto test_keys = data::all_test_keys(exp_->config().data);
  for (const auto mode :
       {serve::ServeMode::kDeterministic, serve::ServeMode::kThreaded}) {
    SCOPED_TRACE(mode == serve::ServeMode::kThreaded ? "threaded"
                                                     : "deterministic");
    serve::ServeConfig sc;
    sc.num_shards = 1;
    sc.max_resident = 1;  // every session switch evicts
    sc.store_dir = util::tmp_path("serve_clean_pending");
    sc.mode = mode;
    serve::SessionStore(sc.store_dir).clear();
    serve::SessionManager mgr(sc, factory());
    core::ChameleonLearner isolated(exp_->env(), learner_config(),
                                    mgr.session_seed(0));
    isolated.observe(batches[0]);
    isolated.observe(batches[1]);
    const auto expected = isolated.predict(test_keys);

    mgr.write_behind().pause_for_test();
    submit_or_drain(mgr, 0, batches[0]);
    submit_or_drain(mgr, 0, batches[1]);
    mgr.drain();
    ASSERT_TRUE(mgr.predict(1, test_keys).has_value());  // evicts 0, dirty
    bool pending = false;
    const auto snapshot = mgr.write_behind().newest_blob(0, &pending);
    ASSERT_NE(snapshot, nullptr);
    ASSERT_TRUE(pending);

    // Restore from the pending snapshot; predicts only.
    for (int i = 0; i < 2; ++i) {
      const auto got = mgr.predict(0, test_keys);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, expected);
    }
    const serve::ServeStats mid = mgr.stats();
    EXPECT_EQ(mid.pending_restores, 1);
    EXPECT_EQ(mid.disk_restores, 0);
    ASSERT_TRUE(mgr.predict(1, test_keys).has_value());  // evicts 0, clean
    const serve::ServeStats after = mgr.stats();
    EXPECT_EQ(after.evictions, mid.evictions + 1);
    EXPECT_EQ(after.clean_evictions, mid.clean_evictions + 1);
    EXPECT_EQ(mgr.write_behind().newest_blob(0, &pending), snapshot)
        << "a clean eviction must not resubmit the session";
    EXPECT_TRUE(pending);

    mgr.write_behind().resume_for_test();
    mgr.write_behind().drain();
    const serve::ServeStats landed = mgr.stats();
    EXPECT_EQ(landed.wb_flushes, 1) << "only the dirty eviction is written";
    const auto got = mgr.predict(0, test_keys);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, expected);

    mgr.flush();
    core::ChameleonLearner restored(exp_->env(), learner_config(), 0xBEEF);
    ASSERT_TRUE(serve::SessionStore(sc.store_dir).load(0, restored));
    expect_bit_identical(restored, isolated, "predict-only pending restore");
  }
  serve::SessionStore(util::tmp_path("serve_clean_pending")).clear();
}

// A created session that was never observed is its factory state
// (split_seed), so evicting it writes nothing at all, flush() included, and
// the next request — or a fresh manager — recreates it bit-identically.
TEST_F(ServeSuite, NeverObservedSessionLeavesNoBlob) {
  const auto test_keys = data::all_test_keys(exp_->config().data);
  for (const auto mode :
       {serve::ServeMode::kDeterministic, serve::ServeMode::kThreaded}) {
    SCOPED_TRACE(mode == serve::ServeMode::kThreaded ? "threaded"
                                                     : "deterministic");
    serve::ServeConfig sc;
    sc.num_shards = 1;
    sc.max_resident = 1;
    sc.store_dir = util::tmp_path("serve_never_observed");
    sc.mode = mode;
    serve::SessionStore(sc.store_dir).clear();
    serve::SessionManager mgr(sc, factory());
    core::ChameleonLearner fresh(exp_->env(), learner_config(),
                                 mgr.session_seed(4));
    const auto expected = fresh.predict(test_keys);

    const auto first = mgr.predict(4, test_keys);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(*first, expected);
    ASSERT_TRUE(mgr.predict(5, test_keys).has_value());  // evicts 4
    mgr.write_behind().drain();
    serve::ServeStats st = mgr.stats();
    EXPECT_EQ(st.evictions, 1);
    EXPECT_EQ(st.clean_evictions, 1);
    EXPECT_EQ(st.wb_flushes, 0);
    EXPECT_EQ(mgr.store().bytes_written(), 0);
    EXPECT_FALSE(mgr.store().contains(4));
    EXPECT_EQ(mgr.write_behind().newest_blob(4), nullptr);

    const auto again = mgr.predict(4, test_keys);  // evicts 5, recreates 4
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, expected);
    st = mgr.stats();
    EXPECT_EQ(st.creates, 3);
    EXPECT_EQ(st.restores, 0);

    mgr.flush();  // evicts like any eviction: the clean session is dropped
    EXPECT_FALSE(mgr.store().contains(4));
    EXPECT_FALSE(mgr.store().contains(5));
    EXPECT_EQ(mgr.store().bytes_written(), 0);

    serve::SessionManager cold(sc, factory());
    const auto recreated = cold.predict(4, test_keys);
    ASSERT_TRUE(recreated.has_value());
    EXPECT_EQ(*recreated, expected);
    st = cold.stats();
    EXPECT_EQ(st.creates, 1);
    EXPECT_EQ(st.restores, 0);
  }
  serve::SessionStore(util::tmp_path("serve_never_observed")).clear();
}

// Satellite bugfix: drain() racing shutdown must not hang, and a manager
// destroyed with queued work must drain it. Completion of this test IS the
// assertion.
TEST_F(ServeSuite, ShutdownWithConcurrentDrainsDoesNotHang) {
  serve::ServeConfig sc;
  sc.num_shards = 2;
  sc.max_resident = 3;
  sc.queue_capacity = 16;
  sc.store_dir = util::tmp_path("serve_shutdown");
  sc.mode = serve::ServeMode::kThreaded;
  serve::SessionStore(sc.store_dir).clear();
  const auto batches = session_batches(5);
  {
    serve::SessionManager mgr(sc, factory());
    for (int i = 0; i < 6; ++i) {
      while (!mgr.submit_observe(static_cast<uint64_t>(i % 3),
                                 batches[static_cast<size_t>(i) %
                                         batches.size()])
                  .accepted) {
        std::this_thread::yield();
      }
    }
    std::vector<std::thread> drains;
    for (int t = 0; t < 3; ++t) drains.emplace_back([&mgr] { mgr.drain(); });
    for (auto& t : drains) t.join();
    // Leave fresh work queued; the destructor must flush it.
    while (!mgr.submit_observe(1, batches[0]).accepted) {
      std::this_thread::yield();
    }
  }
  serve::SessionStore reader(sc.store_dir);
  for (uint64_t s = 0; s < 3; ++s) {
    EXPECT_TRUE(reader.contains(s)) << "session " << s << " never landed";
  }
}

// Tentpole: steady-state eviction writes shrink by >5x once a session's
// base blob is on disk — each re-eviction after a single observe writes an
// op-log delta, not the 2MB full blob. flush() compacts nothing, so the
// deltas the running manager wrote stay on disk, and both readers — a
// plain SessionStore::load and a cold SessionManager — replay them back to
// the isolated state.
TEST_F(ServeSuite, SteadyStateEvictionWritesUseDeltas) {
  constexpr int kRounds = 6;
  serve::ServeConfig sc;
  sc.num_shards = 1;
  sc.max_resident = 1;
  sc.queue_capacity = 4;
  sc.store_dir = util::tmp_path("serve_delta");
  sc.base_seed = 13;
  serve::SessionStore(sc.store_dir).clear();
  serve::SessionManager mgr(sc, factory());

  std::vector<std::vector<data::Batch>> batches;
  for (int64_t s = 0; s < 2; ++s) batches.push_back(session_batches(s, 5));

  for (int round = 0; round < kRounds; ++round) {
    for (uint64_t s = 0; s < 2; ++s) {
      submit_or_drain(
          mgr, s,
          batches[s][static_cast<size_t>(round) % batches[s].size()]);
      mgr.drain();
    }
  }
  mgr.write_behind().drain();  // settle flushes WITHOUT forcing compaction

  const serve::ServeStats st = mgr.stats();
  const int64_t delta_saves = st.wb_oplog_saves;
  ASSERT_GT(delta_saves, 0) << "steady state must produce delta writes";
  ASSERT_GT(st.wb_full_saves, 0);
  const double avg_delta =
      static_cast<double>(st.wb_delta_bytes) / static_cast<double>(delta_saves);
  const double avg_full = static_cast<double>(st.wb_full_bytes) /
                          static_cast<double>(st.wb_full_saves);
  EXPECT_LE(avg_delta * 5.0, avg_full)
      << "avg delta " << avg_delta << "B vs avg full " << avg_full << "B";

  // Fidelity still holds through the delta path.
  mgr.flush();
  serve::SessionStore reader(sc.store_dir);
  serve::SessionManager cold(sc, factory());
  const auto test_keys = data::all_test_keys(exp_->config().data);
  for (uint64_t s = 0; s < 2; ++s) {
    SCOPED_TRACE("session " + std::to_string(s));
    EXPECT_TRUE(std::filesystem::exists(delta_path(sc.store_dir, s)))
        << "flush() must leave the manager's delta on disk";
    core::ChameleonLearner restored(exp_->env(), learner_config(), 0xACE);
    serve::SessionStore::LoadInfo info;
    ASSERT_TRUE(reader.load(s, restored, &info));
    EXPECT_TRUE(info.applied_delta);
    EXPECT_GT(info.replayed_ops, 0);
    core::ChameleonLearner isolated(exp_->env(), learner_config(),
                                    mgr.session_seed(s));
    for (int round = 0; round < kRounds; ++round) {
      isolated.observe(
          batches[s][static_cast<size_t>(round) % batches[s].size()]);
    }
    expect_bit_identical(restored, isolated,
                         "delta-path session " + std::to_string(s));
    // The cold restore is hash-verified against the evicted blob, which
    // the plain load above just matched to isolation.
    const auto served = cold.predict(s, test_keys);
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(*served, isolated.predict(test_keys));
  }
  const serve::ServeStats cs = cold.stats();
  EXPECT_EQ(cs.disk_restores, 2);
  EXPECT_GT(cs.replayed_ops, 0);
}

// Disk restore through an op-log delta: base blob + logged requests on
// disk (as after a crash that lost the RAM cache), the manager replays the
// log through a fresh learner and lands, hash-verified, on the exact state.
TEST_F(ServeSuite, OpLogDeltaRestoreReplaysFromDisk) {
  serve::ServeConfig sc;
  sc.num_shards = 1;
  sc.max_resident = 2;
  sc.store_dir = util::tmp_path("serve_oplog");
  sc.base_seed = 55;
  serve::SessionStore(sc.store_dir).clear();

  const uint64_t sid = 3;
  const uint64_t seed = split_seed(sc.base_seed, sid);
  const auto batches = session_batches(6);
  const auto test_keys = data::all_test_keys(exp_->config().data);

  // Hand-craft the on-disk state: full blob after batch 0, op-log delta
  // covering batches 1 and 2 plus one predict. The serving runtime logs
  // observes only, but stores written before it did still carry predicts;
  // a restore skips them as no-ops and counts them as replayed.
  core::ChameleonLearner source(exp_->env(), learner_config(), seed);
  source.observe(batches[0]);
  core::ByteBuf base;
  ASSERT_TRUE(source.save_state(base));
  std::vector<data::ServeOp> ops(3);
  ops[0].batch = batches[1];
  ops[1].predict = true;
  ops[1].keys = test_keys;
  ops[2].batch = batches[2];
  source.observe(batches[1]);
  (void)source.predict(test_keys);
  source.observe(batches[2]);
  core::ByteBuf target;
  ASSERT_TRUE(source.save_state(target));
  core::DeltaHeader h;
  h.kind = core::DeltaKind::kOpLog;
  h.base_hash = core::blob_hash(base.data(), base.size());
  h.base_len = base.size();
  h.next_hash = core::blob_hash(target.data(), target.size());
  h.next_len = target.size();
  const core::ByteBuf frame = core::encode_op_log(h, ops);
  {
    serve::SessionStore writer(sc.store_dir);
    ASSERT_TRUE(writer.put_full(sid, base.data(), base.size()));
    ASSERT_TRUE(writer.put_delta(sid, frame.data(), frame.size()));
    EXPECT_TRUE(std::filesystem::exists(delta_path(sc.store_dir, sid)));
  }

  // A cold manager must reconstruct the target state by replay.
  serve::SessionManager mgr(sc, factory());
  const auto served = mgr.predict(sid, test_keys);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(*served, source.predict(test_keys));
  const serve::ServeStats st = mgr.stats();
  EXPECT_EQ(st.disk_restores, 1);
  EXPECT_EQ(st.replayed_ops, 3);
}

// A disk restore that applied a live op-log delta is dirty even if it then
// serves only predicts: left as it is, base + delta would be replayed again
// by every later cold restore, so the first eviction compacts it to one
// full blob, the delta file goes, and the next cold restore replays
// nothing. A log of predicts only (a store written before the log
// carried observes only) is compacted the same way.
TEST_F(ServeSuite, ReplayRestoredSessionCompactsOnFirstEviction) {
  const uint64_t sid = 3;
  const auto batches = session_batches(10);
  const auto test_keys = data::all_test_keys(exp_->config().data);
  for (const bool with_observes : {true, false}) {
    SCOPED_TRACE(with_observes ? "log with observes" : "predict-only log");
    for (const auto mode :
         {serve::ServeMode::kDeterministic, serve::ServeMode::kThreaded}) {
      SCOPED_TRACE(mode == serve::ServeMode::kThreaded ? "threaded"
                                                       : "deterministic");
      serve::ServeConfig sc;
      sc.num_shards = 1;
      sc.max_resident = 1;
      sc.store_dir = util::tmp_path("serve_replay_compact");
      sc.base_seed = 55;
      sc.mode = mode;
      serve::SessionStore store(sc.store_dir);
      store.clear();

      core::ChameleonLearner source(exp_->env(), learner_config(),
                                    split_seed(sc.base_seed, sid));
      auto snapshot = [&source] {
        core::ByteBuf blob;
        EXPECT_TRUE(source.save_state(blob));
        return blob;
      };
      source.observe(batches[0]);
      const core::ByteBuf base = snapshot();
      std::vector<data::ServeOp> ops(with_observes ? 2 : 1);
      ops[0].predict = true;
      ops[0].keys = test_keys;
      if (with_observes) {
        ops[1].batch = batches[1];
        source.observe(batches[1]);
      }
      const core::ByteBuf target = snapshot();
      core::DeltaHeader h;
      h.base_hash = core::blob_hash(base.data(), base.size());
      h.base_len = base.size();
      h.next_hash = core::blob_hash(target.data(), target.size());
      h.next_len = target.size();
      const core::ByteBuf frame = core::encode_op_log(h, ops);
      ASSERT_TRUE(store.put_full(sid, base.data(), base.size()));
      ASSERT_TRUE(store.put_delta(sid, frame.data(), frame.size()));
      const auto expected = source.predict(test_keys);

      {
        serve::SessionManager mgr(sc, factory());
        for (int i = 0; i < 2; ++i) {
          const auto got = mgr.predict(sid, test_keys);
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(*got, expected);
        }
        ASSERT_TRUE(mgr.predict(sid + 1, test_keys).has_value());  // evicts
        mgr.write_behind().drain();
        const serve::ServeStats st = mgr.stats();
        EXPECT_EQ(st.disk_restores, 1);
        EXPECT_EQ(st.replayed_ops, static_cast<int64_t>(ops.size()));
        EXPECT_EQ(st.clean_evictions, 0);
        EXPECT_EQ(st.wb_full_saves, 1) << "exactly one full write";
        EXPECT_EQ(st.wb_oplog_saves, 0);
        EXPECT_FALSE(std::filesystem::exists(delta_path(sc.store_dir, sid)))
            << "the compaction drops .delta";
        core::ChameleonLearner reader(exp_->env(), learner_config(), 0xBEEF);
        ASSERT_TRUE(store.load(sid, reader));
        expect_bit_identical(reader, source, "compacted session");
      }

      serve::SessionManager cold(sc, factory());
      const auto got = cold.predict(sid, test_keys);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, expected);
      const serve::ServeStats st = cold.stats();
      EXPECT_EQ(st.disk_restores, 1);
      EXPECT_EQ(st.replayed_ops, 0);
    }
  }
  serve::SessionStore(util::tmp_path("serve_replay_compact")).clear();
}

// Crash consistency: a full write renames .chk before unlinking .delta; a
// crash in between leaves a stale op-log delta whose base hash mismatches.
// Both readers must serve the (newer) base alone and replay nothing: the
// plain SessionStore::load and a SessionManager disk restore.
TEST_F(ServeSuite, StaleDeltaIsIgnoredOnLoad) {
  serve::ServeConfig sc;
  sc.num_shards = 1;
  sc.max_resident = 1;
  sc.store_dir = util::tmp_path("serve_stale");
  sc.base_seed = 27;
  serve::SessionStore store(sc.store_dir);
  store.clear();
  const uint64_t sid = 1;
  const auto batches = session_batches(7);
  const auto test_keys = data::all_test_keys(exp_->config().data);

  core::ChameleonLearner learner(exp_->env(), learner_config(),
                                 split_seed(sc.base_seed, sid));
  auto snapshot = [&learner] {
    core::ByteBuf blob;
    EXPECT_TRUE(learner.save_state(blob));
    return blob;
  };
  learner.observe(batches[0]);
  const core::ByteBuf blob_a = snapshot();
  learner.observe(batches[1]);
  const core::ByteBuf blob_b = snapshot();
  std::vector<data::ServeOp> ops(1);
  ops[0].batch = batches[1];
  core::DeltaHeader h;
  h.base_hash = core::blob_hash(blob_a.data(), blob_a.size());
  h.base_len = blob_a.size();
  h.next_hash = core::blob_hash(blob_b.data(), blob_b.size());
  h.next_len = blob_b.size();
  const core::ByteBuf delta_ab = core::encode_op_log(h, ops);

  // Advance the base past the delta (a put_full removes it), then
  // re-install the stale delta as a crash between rename and unlink would.
  learner.observe(batches[2]);
  const core::ByteBuf blob_c = snapshot();
  ASSERT_TRUE(store.put_full(sid, blob_a.data(), blob_a.size()));
  ASSERT_TRUE(store.put_delta(sid, delta_ab.data(), delta_ab.size()));
  ASSERT_TRUE(store.put_full(sid, blob_c.data(), blob_c.size()));
  EXPECT_FALSE(std::filesystem::exists(delta_path(sc.store_dir, sid)))
      << "put_full must remove the delta";
  ASSERT_TRUE(store.put_delta(sid, delta_ab.data(), delta_ab.size()));

  core::ChameleonLearner as_c(exp_->env(), learner_config(), 0x22);
  ASSERT_TRUE(store.load(sid, as_c));
  expect_bit_identical(as_c, learner, "stale delta ignored, base served");

  serve::SessionManager mgr(sc, factory());
  const auto served = mgr.predict(sid, test_keys);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(*served, learner.predict(test_keys));
  const serve::ServeStats st = mgr.stats();
  EXPECT_EQ(st.disk_restores, 1);
  EXPECT_EQ(st.replayed_ops, 0) << "a stale op log must not be replayed";
}

// A delta that cannot be applied must be refused, never served as if it
// were the newest state. Two such frames: kind 0 of CHS3, the retired chunk
// diff (never misread as an op log or skipped as stale, whether or not its
// base hash matches), and a live op-log delta whose replay misses a forged
// target hash. SessionStore::load fails, and a SessionManager disk restore
// fails the request as one dispatch error and leaves nothing resident, in
// both scheduler modes.
TEST_F(ServeSuite, LegacyChunkDeltaIsRejectedOnLoad) {
  const std::string dir = util::tmp_path("serve_legacy");
  const uint64_t sid = 5;
  const auto batches = session_batches(8);
  const auto test_keys = data::all_test_keys(exp_->config().data);
  core::ChameleonLearner learner(exp_->env(), learner_config(), 41);
  learner.observe(batches[0]);
  const core::ByteBuf base = blob_of(learner);
  const uint64_t base_hash = core::blob_hash(base.data(), base.size());

  // Legacy layout: CHS3 header with kind 0, then the chunk size and a
  // zero dirty-chunk count (a diff that reconstructs the base itself).
  auto legacy_frame = [&base](uint64_t claimed_base_hash) {
    core::ByteBuf f;
    auto put = [&f](const auto& v) {
      const char* p = reinterpret_cast<const char*>(&v);
      f.insert(f.end(), p, p + sizeof(v));
    };
    put(uint32_t{0x43485333});  // "CHS3"
    put(uint32_t{1});           // frame version
    put(uint8_t{0});            // retired kind
    put(claimed_base_hash);
    put(uint64_t{base.size()});
    put(core::blob_hash(base.data(), base.size()));
    put(uint64_t{base.size()});
    put(uint32_t{256});
    put(uint32_t{0});
    return f;
  };

  // A live op-log delta replaying batch 1. Unforged, it loads; with its
  // target hash forged, the replay check alone must refuse it.
  learner.observe(batches[1]);
  const core::ByteBuf target = blob_of(learner);
  std::vector<data::ServeOp> ops(1);
  ops[0].batch = batches[1];
  core::DeltaHeader h;
  h.base_hash = base_hash;
  h.base_len = base.size();
  h.next_hash = core::blob_hash(target.data(), target.size());
  h.next_len = target.size();
  {
    const core::ByteBuf frame = core::encode_op_log(h, ops);
    serve::SessionStore store(dir);
    store.clear();
    ASSERT_TRUE(store.put_full(sid, base.data(), base.size()));
    ASSERT_TRUE(store.put_delta(sid, frame.data(), frame.size()));
    core::ChameleonLearner probe(exp_->env(), learner_config(), 0x33);
    serve::SessionStore::LoadInfo info;
    ASSERT_TRUE(store.load(sid, probe, &info));
    EXPECT_EQ(info.replayed_ops, 1);
    expect_bit_identical(probe, learner, "unforged op-log delta");
  }
  h.next_hash ^= 1;

  const std::pair<const char*, core::ByteBuf> cases[] = {
      {"legacy kind 0, base hash matches", legacy_frame(base_hash)},
      {"legacy kind 0, stale base hash", legacy_frame(base_hash ^ 1)},
      {"op log, forged target hash", core::encode_op_log(h, ops)},
  };
  for (const auto& [name, frame] : cases) {
    SCOPED_TRACE(name);
    for (const auto mode :
         {serve::ServeMode::kDeterministic, serve::ServeMode::kThreaded}) {
      const bool threaded = mode == serve::ServeMode::kThreaded;
      SCOPED_TRACE(threaded ? "threaded" : "deterministic");
      {
        serve::SessionStore store(dir);
        store.clear();
        ASSERT_TRUE(store.put_full(sid, base.data(), base.size()));
        ASSERT_TRUE(store.put_delta(sid, frame.data(), frame.size()));
        core::ChameleonLearner probe(exp_->env(), learner_config(), 0x33);
        EXPECT_FALSE(store.load(sid, probe));
      }
      serve::ServeConfig sc;
      sc.num_shards = 1;
      sc.max_resident = 1;
      sc.store_dir = dir;
      sc.mode = mode;
      serve::SessionManager mgr(sc, factory());
      if (threaded) {
        std::future<std::vector<int64_t>> result;
        ASSERT_TRUE(mgr.submit_predict(sid, test_keys, &result).accepted);
        EXPECT_THROW((void)result.get(), util::CheckError);
      } else {
        EXPECT_THROW((void)mgr.predict(sid, test_keys), util::CheckError);
      }
      // The worker counts the error after failing the future; drain()
      // waits for it to finish the plan.
      mgr.drain();
      EXPECT_EQ(mgr.resident_count(), 0);
      const serve::ServeStats st = mgr.stats();
      EXPECT_EQ(st.restores, 0);
      EXPECT_EQ(st.dispatch_errors, 1);
    }
  }
  serve::SessionStore(dir).clear();
}

// The snapshot cache keeps a blob only while disk cannot serve it without
// replay. A full landing caches nothing: the next restore reads the blob
// from disk. A delta landing stays cached, since its disk restore replays
// observes. A cold load of either landing is bit-identical to isolation.
TEST_F(ServeSuite, FullFlushLeavesNothingCached) {
  serve::ServeConfig sc;
  sc.num_shards = 1;
  sc.max_resident = 1;  // touching another session evicts
  sc.store_dir = util::tmp_path("serve_full_uncached");
  serve::SessionStore(sc.store_dir).clear();
  const auto batches = session_batches(12);
  const auto test_keys = data::all_test_keys(exp_->config().data);
  serve::SessionManager mgr(sc, factory());
  core::ChameleonLearner isolated(exp_->env(), learner_config(),
                                  mgr.session_seed(0));

  // First eviction of session 0: no base yet, so a full blob.
  submit_or_drain(mgr, 0, batches[0]);
  mgr.drain();
  isolated.observe(batches[0]);
  ASSERT_TRUE(mgr.predict(1, test_keys).has_value());  // evicts 0, dirty
  mgr.write_behind().drain();
  serve::ServeStats st = mgr.stats();
  EXPECT_EQ(st.wb_full_saves, 1);
  EXPECT_EQ(mgr.write_behind().newest_blob(0), nullptr)
      << "a full landing must not stay cached";
  EXPECT_EQ(mgr.write_behind().cached_bytes(), 0);
  {
    core::ChameleonLearner restored(exp_->env(), learner_config(), 0xBEEF);
    serve::SessionStore::LoadInfo info;
    ASSERT_TRUE(serve::SessionStore(sc.store_dir).load(0, restored, &info));
    EXPECT_FALSE(info.applied_delta);
    expect_bit_identical(restored, isolated, "full landing");
  }

  // Restore from disk, observe once more: the eviction lands as a delta
  // against that base, and the delta's blob stays cached.
  submit_or_drain(mgr, 0, batches[1]);
  mgr.drain();
  isolated.observe(batches[1]);
  ASSERT_TRUE(mgr.predict(1, test_keys).has_value());  // evicts 0, dirty
  mgr.write_behind().drain();
  st = mgr.stats();
  EXPECT_EQ(st.disk_restores, 1);
  EXPECT_EQ(st.wb_oplog_saves, 1);
  const auto cached = mgr.write_behind().newest_blob(0);
  ASSERT_NE(cached, nullptr) << "a delta landing must stay cached";
  EXPECT_EQ(mgr.write_behind().cached_bytes(),
            static_cast<int64_t>(ws::pool_block_bytes(cached->capacity())));
  EXPECT_EQ(*cached, blob_of(isolated));
  {
    core::ChameleonLearner restored(exp_->env(), learner_config(), 0xBEEF);
    serve::SessionStore::LoadInfo info;
    ASSERT_TRUE(serve::SessionStore(sc.store_dir).load(0, restored, &info));
    EXPECT_TRUE(info.applied_delta);
    EXPECT_EQ(info.replayed_ops, 1);
    expect_bit_identical(restored, isolated, "delta landing");
  }
  serve::SessionStore(sc.store_dir).clear();
}

// The snapshot cache holds only each session's `latest` blob. A flush can
// push it over budget by at most the blob that just landed (the high-water
// mark is taken before the trim), and the trim after every flush brings it
// back under budget unless a compaction write failed.
TEST_F(ServeSuite, SnapshotCacheOvershootIsAtMostOneBlob) {
  constexpr int64_t kSessions = 6;
  constexpr int kRounds = 3;
  std::vector<std::vector<data::Batch>> batches;
  for (int64_t s = 0; s < kSessions; ++s) {
    batches.push_back(session_batches(s, 11));
  }
  core::ByteBuf probe_blob;
  {
    core::ChameleonLearner probe(exp_->env(), learner_config(), 1);
    probe.observe(batches[0][0]);
    ASSERT_TRUE(probe.save_state(probe_blob));
  }
  serve::ServeConfig sc;
  sc.num_shards = 2;
  sc.max_resident = 2;  // six sessions over two slots: constant eviction
  sc.queue_capacity = 8;
  sc.mode = serve::ServeMode::kThreaded;
  sc.store_dir = util::tmp_path("serve_cache_budget");
  sc.base_seed = 31;
  // Room for about two and a half blobs' pool blocks.
  sc.snapshot_cache_bytes =
      static_cast<int64_t>(ws::pool_block_bytes(probe_blob.size()) * 5 / 2);
  serve::SessionStore reader(sc.store_dir);
  reader.clear();
  serve::SessionManager mgr(sc, factory());

  // Largest blob that has landed: full blobs on disk, op-log deltas by the
  // target length in their header. Sampled after every settled step, and
  // each step lands at most one new blob per session.
  std::size_t max_blob = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int64_t s = 0; s < kSessions; ++s) {
      const auto sid = static_cast<uint64_t>(s);
      while (!mgr.submit_observe(sid, batches[static_cast<size_t>(s)]
                                             [static_cast<size_t>(round)])
                  .accepted) {
        std::this_thread::yield();
      }
      mgr.drain();
      mgr.write_behind().drain();
      for (int64_t t = 0; t < kSessions; ++t) {
        const auto tid = static_cast<uint64_t>(t);
        core::ByteBuf bytes;
        if (reader.get_blob(tid, bytes)) {
          max_blob = std::max(max_blob, bytes.size());
        }
        core::DeltaHeader h;
        std::ifstream delta(delta_path(sc.store_dir, tid), std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(delta),
                     std::istreambuf_iterator<char>());
        if (core::read_delta_header(bytes.data(), bytes.size(), h)) {
          max_blob = std::max(max_blob, static_cast<std::size_t>(h.next_len));
        }
      }
      if (mgr.write_behind().stats().wb_flush_errors == 0) {
        EXPECT_LE(mgr.write_behind().cached_bytes(), sc.snapshot_cache_bytes)
            << "after step " << round << "/" << s;
      }
    }
  }
  const serve::ServeStats st = mgr.stats();
  EXPECT_GT(st.wb_compactions, 0) << "the budget must force compactions";
  EXPECT_LE(st.wb_cache_bytes_high_water,
            sc.snapshot_cache_bytes +
                static_cast<int64_t>(ws::pool_block_bytes(max_blob)));
}

// The budget bounds memory: a cached blob costs the pool block its buffer
// occupies. Template-relative blobs are about two thirds of a raw one, but
// their block is the same, so counting their length would let the cache
// hold more blocks than the budget.
TEST_F(ServeSuite, SnapshotCacheCountsPoolBlocksOfEncodedBlobs) {
  constexpr uint64_t kSessions = 8;
  const std::string dir = util::tmp_path("wb_block_budget");
  serve::SessionStore store(dir);
  store.clear();
  std::vector<std::shared_ptr<const core::ByteBuf>> blobs;
  for (uint64_t s = 0; s < kSessions; ++s) {
    core::ChameleonLearner learner(exp_->env(), learner_config(), 40 + s);
    learner.observe(session_batches(static_cast<int64_t>(s), 13)[0]);
    const core::ByteBuf bytes = blob_of(learner);
    blobs.push_back(
        std::make_shared<const core::ByteBuf>(bytes.begin(), bytes.end()));
  }
  const std::size_t block = ws::pool_block_bytes(blobs[0]->capacity());
  // Five blocks, which by length would hold more than five blobs.
  const auto budget = static_cast<int64_t>(5 * block);
  ASSERT_GT(budget / static_cast<int64_t>(blobs[0]->size()), 5);

  serve::WriteBehind wb(store, budget);
  for (uint64_t s = 0; s < kSessions; ++s) {
    wb.submit({s, blobs[s], {}, /*ops_valid=*/true});  // the full base
  }
  wb.drain();
  data::ServeOp op;
  op.batch.keys.push_back({0, 0, 0, false});
  op.batch.labels.push_back(0);
  for (uint64_t s = 0; s < kSessions; ++s) {
    // A one-observe op log: the flush lands as a delta and stays cached.
    wb.submit({s, blobs[s], {op}, /*ops_valid=*/true});
    wb.drain();
    int64_t held = 0;
    for (uint64_t t = 0; t < kSessions; ++t) {
      if (auto b = wb.newest_blob(t)) {
        held += static_cast<int64_t>(ws::pool_block_bytes(b->capacity()));
      }
    }
    EXPECT_EQ(wb.cached_bytes(), held) << "after session " << s;
    EXPECT_LE(held, budget) << "after session " << s;
  }
  EXPECT_GT(wb.stats().wb_compactions, 0);
  store.clear();
}

// Cache pressure compacts the least recently used delta session first,
// where use is a landing or a restore lookup (newest_blob), not the session
// id or the landing order alone. Synthetic blobs: a one-observe op log is
// far below half a 64 KiB blob, so every second flush lands as a delta and
// stays cached.
TEST(WriteBehindCache, CompactsLeastRecentlyUsedDeltaSessionFirst) {
  const std::string dir = util::tmp_path("wb_lru_compaction");
  serve::SessionStore store(dir);
  store.clear();
  constexpr std::size_t kBlob = 64 * 1024;
  const auto blob = [&](char fill) {
    return std::make_shared<const core::ByteBuf>(kBlob, fill);
  };
  const auto landed_delta = [](serve::WriteBehind& wb, uint64_t sid) {
    return wb.newest_blob(sid) != nullptr;
  };
  {
    // Room for three and a half cached blobs.
    serve::WriteBehind wb(store, static_cast<int64_t>(kBlob * 7 / 2));
    for (uint64_t sid = 0; sid < 4; ++sid) {
      wb.submit({sid, blob('a'), {}, /*ops_valid=*/true});  // the full base
    }
    wb.drain();
    data::ServeOp op;
    op.batch.keys.push_back({0, 0, 0, false});
    op.batch.labels.push_back(0);
    // Sessions 3, 1, 0 land as deltas in that order; then a restore lookup
    // of session 3 makes session 1 the least recently used.
    for (uint64_t sid : {3, 1, 0}) {
      wb.submit({sid, blob('b'), {op}, /*ops_valid=*/true});
      wb.drain();
    }
    ASSERT_EQ(wb.stats().wb_compactions, 0);
    ASSERT_TRUE(landed_delta(wb, 3));
    // Session 2's landing puts four blobs in the cache: one compaction.
    wb.submit({2, blob('b'), {op}, /*ops_valid=*/true});
    wb.drain();
    EXPECT_EQ(wb.stats().wb_compactions, 1);
    EXPECT_FALSE(landed_delta(wb, 1)) << "session 1 was the LRU entry";
    EXPECT_TRUE(landed_delta(wb, 0));
    EXPECT_TRUE(landed_delta(wb, 2));
    EXPECT_TRUE(landed_delta(wb, 3));
  }
  store.clear();
}

// --- Batched predict dispatch (serve/batch_planner.h) ----------------------

// Submits a predict with drain-on-reject and returns its future.
std::future<std::vector<int64_t>> submit_predict_or_drain(
    serve::SessionManager& mgr, uint64_t sid,
    const std::vector<data::ImageKey>& keys) {
  for (;;) {
    std::future<std::vector<int64_t>> result;
    if (mgr.submit_predict(sid, keys, &result).accepted) return result;
    mgr.drain();
  }
}

// Tentpole: a planned batch — merged windows included — returns exactly the
// bits the unbatched per-request path returns, and a batch of one is just
// the unbatched path. Reference results come from isolated learners run
// with each session's derived seed.
TEST_F(ServeSuite, BatchedPredictMatchesIsolatedLearner) {
  constexpr int64_t kSessions = 5;
  serve::ServeConfig sc;
  sc.num_shards = 2;
  sc.max_resident = 6;
  sc.queue_capacity = 16;
  sc.max_batch = 4;  // kSessions' predicts need > 1 window
  sc.store_dir = util::tmp_path("serve_batch_iso");
  sc.base_seed = 33;
  serve::SessionStore(sc.store_dir).clear();
  serve::SessionManager mgr(sc, factory());

  std::vector<std::vector<data::Batch>> batches;
  for (int64_t s = 0; s < kSessions; ++s) {
    batches.push_back(session_batches(s, /*salt=*/5));
    submit_or_drain(mgr, static_cast<uint64_t>(s),
                    batches[static_cast<size_t>(s)][0]);
  }
  mgr.drain();
  const auto test_keys = data::all_test_keys(exp_->config().data);

  // Batch of one: a lone queued predict becomes a single-request plan.
  auto lone = submit_predict_or_drain(mgr, 0, test_keys);
  mgr.drain();
  core::ChameleonLearner iso0(exp_->env(), learner_config(),
                              mgr.session_seed(0));
  iso0.observe(batches[0][0]);
  EXPECT_EQ(lone.get(), iso0.predict(test_keys)) << "batch-of-one differs";
  {
    const serve::ServeStats st = mgr.stats();
    EXPECT_EQ(st.predict_batches, 0) << "a lone predict must not be merged";
  }

  // Every session queues a run of predicts; one drain coalesces each
  // shard's queue into one plan, merging each session's run into
  // stacked eval windows (merging needs same-session requests: each
  // session has private head weights, so rows from different sessions can
  // never share a GEMM — the cross-session win is the one-sweep dispatch).
  constexpr int64_t kReps = 3;
  std::vector<std::future<std::vector<int64_t>>> futures;
  for (int64_t rep = 0; rep < kReps; ++rep) {
    for (int64_t s = 0; s < kSessions; ++s) {
      futures.push_back(
          submit_predict_or_drain(mgr, static_cast<uint64_t>(s), test_keys));
    }
  }
  mgr.drain();
  for (int64_t s = 0; s < kSessions; ++s) {
    core::ChameleonLearner iso(exp_->env(), learner_config(),
                               mgr.session_seed(static_cast<uint64_t>(s)));
    iso.observe(batches[static_cast<size_t>(s)][0]);
    const auto want = iso.predict(test_keys);
    for (int64_t rep = 0; rep < kReps; ++rep) {
      EXPECT_EQ(futures[static_cast<size_t>(rep * kSessions + s)].get(), want)
          << "batched predict differs for session " << s << " rep " << rep;
    }
  }
  const serve::ServeStats st = mgr.stats();
  EXPECT_GT(st.predict_batches, 0) << "coalescing never merged a window";
  EXPECT_GE(st.batched_predicts, 2);
  EXPECT_GE(st.batch_size_max, 2);
  EXPECT_LE(st.batch_size_max, sc.max_batch);
  EXPECT_EQ(st.predicts, kReps * kSessions + 1);
  EXPECT_EQ(st.dispatch_errors, 0);
}

// The batched-predict gate: the same mixed observe/predict schedule run
// with coalescing on (max_batch=8) and off (max_batch=1) yields
// byte-identical predictions everywhere, and predicts always see their
// session's earlier observes (read-your-writes through the planner's
// eligibility rule).
TEST_F(ServeSuite, BatchedVsUnbatchedBitExactOnMixedInterleave) {
  constexpr int64_t kSessions = 6;
  constexpr int64_t kRounds = 3;
  std::vector<std::vector<data::Batch>> batches;
  for (int64_t s = 0; s < kSessions; ++s) {
    batches.push_back(session_batches(s, /*salt=*/91));
  }
  const auto test_keys = data::all_test_keys(exp_->config().data);

  // Mixed interleave: each round submits an observe then TWO predicts per
  // session before any drain, so every shard queue holds predict runs
  // blocked behind same-session observes next to eligible cross-session
  // runs (the runs merge once their observe dispatches).
  auto run = [&](const std::string& dir, int64_t max_batch) {
    serve::ServeConfig sc;
    sc.num_shards = 3;
    sc.max_resident = 4;  // below kSessions: plans race eviction
    sc.queue_capacity = 16;
    sc.max_batch = max_batch;
    sc.store_dir = dir;
    sc.base_seed = 55;
    serve::SessionStore(dir).clear();
    serve::SessionManager mgr(sc, factory());
    std::vector<std::vector<int64_t>> out;
    std::vector<std::future<std::vector<int64_t>>> futures;
    for (int64_t r = 0; r < kRounds; ++r) {
      for (int64_t s = 0; s < kSessions; ++s) {
        submit_or_drain(mgr, static_cast<uint64_t>(s),
                        batches[static_cast<size_t>(s)][static_cast<size_t>(
                            r % static_cast<int64_t>(
                                    batches[static_cast<size_t>(s)].size()))]);
        futures.push_back(submit_predict_or_drain(
            mgr, static_cast<uint64_t>(s), test_keys));
        futures.push_back(submit_predict_or_drain(
            mgr, static_cast<uint64_t>(s), test_keys));
      }
    }
    mgr.drain();
    for (auto& f : futures) out.push_back(f.get());
    const serve::ServeStats st = mgr.stats();
    EXPECT_EQ(st.predicts, 2 * kSessions * kRounds);
    EXPECT_EQ(st.dispatch_errors, 0);
    if (max_batch == 1) {
      EXPECT_EQ(st.predict_batches, 0)
          << "max_batch=1 must disable cross-request merging";
    } else {
      EXPECT_GT(st.batched_predicts, 0)
          << "mixed schedule never exercised a merged window";
    }
    return out;
  };

  const auto batched = run(util::tmp_path("serve_batch_on"), 8);
  const auto unbatched = run(util::tmp_path("serve_batch_off"), 1);
  ASSERT_EQ(batched.size(), unbatched.size());
  for (size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i], unbatched[i])
        << "batched vs unbatched predictions diverge at event " << i;
  }
}

// Tentpole determinism: with only predicts queued, the deterministic drain
// extracts each shard's eligible set into one plan whose order, grouping
// and window structure are a pure function of per-session request
// sequences — so any arrival permutation produces identical results AND
// identical batching stats.
TEST_F(ServeSuite, PlanStableAcrossArrivalPermutations) {
  constexpr int64_t kSessions = 6;
  constexpr int64_t kPredictsPerSession = 3;
  std::vector<std::vector<data::Batch>> batches;
  for (int64_t s = 0; s < kSessions; ++s) {
    batches.push_back(session_batches(s, /*salt=*/13));
  }
  const auto test_keys = data::all_test_keys(exp_->config().data);

  // permutation: maps submission slot -> session, covering each session
  // kPredictsPerSession times in different global orders.
  auto run = [&](const std::string& dir,
                 const std::vector<int64_t>& session_order) {
    serve::ServeConfig sc;
    sc.num_shards = 2;
    sc.max_resident = 8;
    sc.queue_capacity = 32;
    sc.max_batch = 4;
    sc.store_dir = dir;
    sc.base_seed = 77;
    serve::SessionStore(dir).clear();
    serve::SessionManager mgr(sc, factory());
    for (int64_t s = 0; s < kSessions; ++s) {
      submit_or_drain(mgr, static_cast<uint64_t>(s),
                      batches[static_cast<size_t>(s)][0]);
    }
    mgr.drain();
    std::vector<std::future<std::vector<int64_t>>> futures(
        session_order.size());
    std::vector<int64_t> slot_of_session(kSessions, 0);
    std::vector<size_t> slot(session_order.size());
    for (size_t i = 0; i < session_order.size(); ++i) {
      const int64_t s = session_order[i];
      // Results are keyed (session, k-th predict), not arrival slot, so
      // permutations compare like for like.
      slot[i] = static_cast<size_t>(
          s * kPredictsPerSession + slot_of_session[static_cast<size_t>(s)]++);
      futures[slot[i]] = submit_predict_or_drain(
          mgr, static_cast<uint64_t>(s), test_keys);
    }
    mgr.drain();
    std::vector<std::vector<int64_t>> out;
    for (auto& f : futures) out.push_back(f.get());
    const serve::ServeStats st = mgr.stats();
    return std::make_tuple(std::move(out), st.predict_batches,
                           st.batched_predicts, st.batch_size_max);
  };

  std::vector<int64_t> forward, reversed, strided;
  for (int64_t k = 0; k < kPredictsPerSession; ++k) {
    for (int64_t s = 0; s < kSessions; ++s) {
      forward.push_back(s);
      reversed.push_back(kSessions - 1 - s);
      strided.push_back((s * 5 + k) % kSessions);
    }
  }
  const auto a = run(util::tmp_path("serve_perm_a"), forward);
  const auto b = run(util::tmp_path("serve_perm_b"), reversed);
  const auto c = run(util::tmp_path("serve_perm_c"), strided);
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<0>(a), std::get<0>(c));
  // Identical plans, not just identical answers: window structure matches.
  EXPECT_GT(std::get<1>(a), 0);
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(c));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(c));
  EXPECT_EQ(std::get<3>(a), std::get<3>(b));
  EXPECT_EQ(std::get<3>(a), std::get<3>(c));
}

// Tentpole: eviction racing a planned batch. A plan spanning more sessions
// than max_resident forces evict/restore round-trips BETWEEN its own
// groups (lazy per-group acquire); every result must still match the
// isolated learner bit for bit.
TEST_F(ServeSuite, EvictionRacesPlannedBatch) {
  constexpr int64_t kSessions = 6;
  serve::ServeConfig sc;
  sc.num_shards = 2;
  sc.max_resident = 2;  // every plan group past the 2nd evicts another
  sc.queue_capacity = 32;
  sc.max_batch = 8;
  sc.store_dir = util::tmp_path("serve_batch_evict");
  sc.base_seed = 99;
  serve::SessionStore(sc.store_dir).clear();
  serve::SessionManager mgr(sc, factory());

  std::vector<std::vector<data::Batch>> batches;
  for (int64_t s = 0; s < kSessions; ++s) {
    batches.push_back(session_batches(s, /*salt=*/37));
    submit_or_drain(mgr, static_cast<uint64_t>(s),
                    batches[static_cast<size_t>(s)][0]);
  }
  mgr.drain();
  const int64_t evictions_before = mgr.stats().evictions;

  const auto test_keys = data::all_test_keys(exp_->config().data);
  std::vector<std::future<std::vector<int64_t>>> futures;
  for (int64_t rep = 0; rep < 2; ++rep) {  // two per session: merged windows
    for (int64_t s = 0; s < kSessions; ++s) {
      futures.push_back(
          submit_predict_or_drain(mgr, static_cast<uint64_t>(s), test_keys));
    }
  }
  mgr.drain();

  const serve::ServeStats st = mgr.stats();
  EXPECT_GT(st.evictions, evictions_before)
      << "plan over " << kSessions << " sessions with max_resident "
      << sc.max_resident << " must evict mid-plan";
  EXPECT_GT(st.batched_predicts, 0);
  EXPECT_EQ(st.dispatch_errors, 0);
  for (int64_t s = 0; s < kSessions; ++s) {
    core::ChameleonLearner iso(exp_->env(), learner_config(),
                               mgr.session_seed(static_cast<uint64_t>(s)));
    iso.observe(batches[static_cast<size_t>(s)][0]);
    const auto want = iso.predict(test_keys);
    EXPECT_EQ(futures[static_cast<size_t>(s)].get(), want)
        << "rep-0 predict differs for session " << s;
    EXPECT_EQ(futures[static_cast<size_t>(kSessions + s)].get(), want)
        << "rep-1 predict differs for session " << s;
  }
}

}  // namespace
}  // namespace cham
