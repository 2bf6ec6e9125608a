// TSan stress tests for the concurrent serving stack.
//
// Registered by tests/CMakeLists.txt ONLY when the build is configured with
// -DCHAM_SANITIZE=thread: the assertions here are deliberately weak (counters
// add up, nothing crashes) because the real oracle is ThreadSanitizer
// watching every interleaving the stress produces. Each test targets a
// distinct raced surface:
//
//   ServeRaceSuite.MultiShardEvictRestoreFlushStress
//       N shard workers + multiple submitter threads + forced evictions
//       (max_resident << sessions) + a pause/resume thread that freezes the
//       write-behind IO thread so restores race their own flush, + pollers
//       hammering every read-only stats surface for ~2 seconds.
//   ServeRaceSuite.DeterministicDrainFlushStress
//       Regression: deterministic-mode drain()/flush()/predict() used to
//       dispatch unserialised, so one thread's drain() racing another's
//       flush() could pop and run one session's requests on two threads
//       at once. Pins the det_dispatch_mu_ serialisation that direct
//       concurrent callers rely on: concurrent drainers + a flusher +
//       submitters for ~1.5 seconds.
//   ServeRaceSuite.BatchPlanCoalesceStress
//       The batch-planner path under contention: submitter threads issue
//       BURSTS of async predicts (back-to-back same-session requests, the
//       planner's merge fuel) interleaved with observes, while workers
//       coalesce queued runs into plans and evictions recycle the
//       residency pool. Exercises take_eligible under the shard mutex and
//       plan dispatch racing eviction.
//   ServeRaceSuite.NetMultiConnectionStress
//       The socket front-end: several NetClient threads hammering one
//       NetServer (pipelined predict bursts, blocking observes, STATS
//       frames) while a churn thread connects, pipelines a predict, and
//       disconnects with it still in flight — racing accept, completion
//       hooks on the shard workers, outbox flow control (shrunken
//       SO_SNDBUF forces partial writes) and the closed-connection
//       cleanup, then a graceful stop().
//   WorkspaceRace.StatsPolledDuringOwnerAllocation
//       Regression for the PR 7 audit finding: ws::stats() used to walk
//       every arena's chunk vector cross-thread while owner threads were
//       growing/consolidating it (and read the non-atomic high-water mark).
//       Both gauges are relaxed atomics now; this pins the fix under TSan.
//   ThreadPoolRace.StatsAndResizeDuringParallelFor
//       num_threads()/set_num_threads() racing live parallel_for regions.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "metrics/experiment.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/session_manager.h"
#include "serve/session_store.h"
#include "tensor/thread_pool.h"
#include "tensor/workspace.h"
#include "util/tmp_path.h"

namespace cham {
namespace {

using Clock = std::chrono::steady_clock;

class ServeRaceSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    metrics::ExperimentConfig cfg = metrics::core50_experiment();
    cfg.data.num_classes = 6;
    cfg.data.num_domains = 2;
    cfg.data.train_instances = 5;
    cfg.pretrain_num_classes = 12;
    cfg.pretrain_epochs = 2;  // stress needs a learner, not accuracy
    exp_ = new metrics::Experiment(cfg);
  }
  static void TearDownTestSuite() {
    delete exp_;
    exp_ = nullptr;
  }

  static serve::LearnerFactory factory() {
    return [](uint64_t /*session_id*/, uint64_t seed) {
      core::ChameleonConfig cc;
      cc.lt_capacity = 18;
      return std::make_unique<core::ChameleonLearner>(exp_->env(), cc, seed);
    };
  }

  static metrics::Experiment* exp_;
};

metrics::Experiment* ServeRaceSuite::exp_ = nullptr;

TEST_F(ServeRaceSuite, MultiShardEvictRestoreFlushStress) {
  constexpr int64_t kSessions = 12;
  constexpr int kSubmitters = 3;
  constexpr auto kDuration = std::chrono::milliseconds(2000);

  serve::ServeConfig sc;
  sc.num_shards = 4;
  sc.max_resident = 4;  // << kSessions: evictions and restores are constant
  sc.queue_capacity = 8;
  sc.store_dir = util::tmp_path("serve_race");
  sc.base_seed = 11;
  sc.mode = serve::ServeMode::kThreaded;
  sc.snapshot_cache_bytes = int64_t{4} << 20;  // cache pressure compactions
  serve::SessionStore(sc.store_dir).clear();

  // One small per-session request stream, reused round-robin.
  data::StreamConfig stream_cfg = exp_->config().stream;
  stream_cfg.seed = 4242;
  data::DomainIncrementalStream stream(exp_->config().data, stream_cfg);
  exp_->warm_latents(stream);
  const std::vector<data::Batch> batches = stream.batches();
  ASSERT_FALSE(batches.empty());

  serve::SessionManager mgr(sc, factory());
  const auto deadline = Clock::now() + kDuration;
  std::atomic<bool> done{false};
  std::atomic<int64_t> submitted{0};
  std::vector<std::thread> threads;

  // Submitters: observes with a predict mixed in, spread over all sessions
  // so shard queues, eviction, and restores all stay hot.
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      uint64_t step = static_cast<uint64_t>(t) * 7919;
      while (Clock::now() < deadline) {
        const uint64_t sid = step % kSessions;
        const data::Batch& b = batches[step % batches.size()];
        if (step % 5 == 4) {
          (void)mgr.predict(sid, b.keys);  // nullopt on rejection is fine
        } else if (mgr.submit_observe(sid, b).accepted) {
          submitted.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();  // backpressure: let workers drain
        }
        ++step;
      }
    });
  }

  // Freeze/unfreeze the write-behind IO thread so restores keep racing
  // their own flush (the pending/in-flight map paths).
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_relaxed)) {
      mgr.write_behind().pause_for_test();
      std::this_thread::sleep_for(std::chrono::milliseconds(7));
      mgr.write_behind().resume_for_test();
      std::this_thread::sleep_for(std::chrono::milliseconds(13));
    }
  });

  // Pollers: every read-only surface that may legally race the dispatchers.
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const serve::ServeStats s = mgr.stats();
      EXPECT_GE(s.submitted, s.admissions);
      (void)mgr.resident_count();
      (void)mgr.write_behind().stats();
      const ws::WorkspaceStats w = ws::stats();
      EXPECT_GE(w.pool_high_water_bytes, 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Concurrent drains exercise the cv_idle wait against live submitters.
  threads.emplace_back([&] {
    while (Clock::now() < deadline) {
      mgr.drain();
      std::this_thread::sleep_for(std::chrono::milliseconds(29));
    }
  });

  for (int t = 0; t < kSubmitters; ++t) threads[t].join();
  threads.back().join();  // drain thread shares the deadline
  done.store(true, std::memory_order_relaxed);
  for (size_t t = kSubmitters; t + 1 < threads.size(); ++t) threads[t].join();
  mgr.write_behind().resume_for_test();  // never leave the IO thread frozen

  // Deterministic coda: one more observe per session. TSan slows dispatch
  // enough that the timed phase alone cannot promise a request ever found
  // its session evicted; visiting all kSessions with only max_resident
  // resident forces at least kSessions - max_resident restores.
  for (uint64_t sid = 0; sid < static_cast<uint64_t>(kSessions); ++sid) {
    while (!mgr.submit_observe(sid, batches[sid % batches.size()]).accepted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    submitted.fetch_add(1, std::memory_order_relaxed);
  }

  mgr.flush();
  const serve::ServeStats s = mgr.stats();
  EXPECT_EQ(s.observes, submitted.load());
  EXPECT_GT(s.evictions, 0) << "stress never evicted; raise the load";
  EXPECT_GT(s.restores, 0) << "stress never restored; raise the load";
  EXPECT_EQ(s.dispatch_errors, 0);
}

TEST_F(ServeRaceSuite, DeterministicDrainFlushStress) {
  constexpr int64_t kSessions = 6;
  constexpr int kSubmitters = 2;
  constexpr auto kDuration = std::chrono::milliseconds(1500);

  serve::ServeConfig sc;
  sc.num_shards = 2;
  sc.max_resident = 3;  // < kSessions: flushes and dispatch contend for slots
  sc.queue_capacity = 8;
  sc.store_dir = util::tmp_path("serve_race_det");
  sc.base_seed = 23;
  sc.mode = serve::ServeMode::kDeterministic;
  serve::SessionStore(sc.store_dir).clear();

  data::StreamConfig stream_cfg = exp_->config().stream;
  stream_cfg.seed = 515;
  data::DomainIncrementalStream stream(exp_->config().data, stream_cfg);
  exp_->warm_latents(stream);
  const std::vector<data::Batch> batches = stream.batches();
  ASSERT_FALSE(batches.empty());

  serve::SessionManager mgr(sc, factory());
  const auto deadline = Clock::now() + kDuration;
  std::atomic<bool> done{false};
  std::atomic<int64_t> submitted{0};
  std::vector<std::thread> threads;

  // Submitters: observes plus async predicts, mirroring the I/O thread's
  // decode-and-submit role. In-flight futures are bounded so backpressure
  // cannot stall a submitter forever.
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      uint64_t step = static_cast<uint64_t>(t) * 104729;
      std::vector<std::future<std::vector<int64_t>>> inflight;
      while (Clock::now() < deadline) {
        const uint64_t sid = step % kSessions;
        const data::Batch& b = batches[step % batches.size()];
        if (step % 4 == 3) {
          std::future<std::vector<int64_t>> f;
          if (mgr.submit_predict(sid, b.keys, &f).accepted) {
            inflight.push_back(std::move(f));
          }
        } else if (mgr.submit_observe(sid, b).accepted) {
          submitted.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();  // backpressure: let the drainers run
        }
        while (inflight.size() > 8) {
          inflight.front().get();
          inflight.erase(inflight.begin());
        }
        ++step;
      }
      for (auto& f : inflight) (void)f.get();
    });
  }

  // A caller-driven dispatcher, as fast as it can.
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_relaxed)) {
      mgr.drain();
      std::this_thread::yield();
    }
  });

  // A flusher: drain + evict-everything, concurrently with the other
  // thread's drain — the raced pair this test exists for.
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_relaxed)) {
      mgr.flush();
      std::this_thread::sleep_for(std::chrono::milliseconds(17));
    }
  });

  // Submitters share the deadline; the drain/flush threads must outlive
  // them (they fulfil the futures the submitters block on).
  for (int t = 0; t < kSubmitters; ++t) threads[t].join();
  done.store(true, std::memory_order_relaxed);
  for (size_t t = kSubmitters; t < threads.size(); ++t) threads[t].join();

  mgr.flush();
  const serve::ServeStats s = mgr.stats();
  EXPECT_EQ(s.observes, submitted.load());
  EXPECT_EQ(s.dispatch_errors, 0);
}

TEST_F(ServeRaceSuite, BatchPlanCoalesceStress) {
  constexpr int64_t kSessions = 10;
  constexpr int kSubmitters = 3;
  constexpr auto kDuration = std::chrono::milliseconds(1500);

  serve::ServeConfig sc;
  sc.num_shards = 4;
  sc.max_resident = 4;  // evictions race planned batches throughout
  sc.queue_capacity = 16;
  sc.store_dir = util::tmp_path("serve_race_plan");
  sc.base_seed = 23;
  sc.mode = serve::ServeMode::kThreaded;
  sc.max_batch = 8;
  serve::SessionStore(sc.store_dir).clear();

  data::StreamConfig stream_cfg = exp_->config().stream;
  stream_cfg.seed = 777;
  data::DomainIncrementalStream stream(exp_->config().data, stream_cfg);
  exp_->warm_latents(stream);
  const std::vector<data::Batch> batches = stream.batches();
  ASSERT_FALSE(batches.empty());

  serve::SessionManager mgr(sc, factory());
  const auto deadline = Clock::now() + kDuration;
  std::atomic<bool> done{false};
  std::atomic<int64_t> predicts_accepted{0};
  std::atomic<int64_t> observes_accepted{0};
  std::atomic<int64_t> empty_results{0};
  std::vector<std::thread> threads;

  // Submitters: mostly predict bursts (2-4 back-to-back async predicts per
  // session — leading same-session runs the planner merges), with observes
  // mixed in so plans race training dispatch and eviction.
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      uint64_t step = static_cast<uint64_t>(t) * 104729;
      std::vector<std::future<std::vector<int64_t>>> pending;
      while (Clock::now() < deadline) {
        const uint64_t sid = step % kSessions;
        const data::Batch& b = batches[step % batches.size()];
        if (step % 3 != 0) {
          const int burst = 2 + static_cast<int>(step % 3);
          for (int i = 0; i < burst; ++i) {
            std::future<std::vector<int64_t>> f;
            if (mgr.submit_predict(sid, b.keys, &f).accepted) {
              pending.push_back(std::move(f));
              predicts_accepted.fetch_add(1, std::memory_order_relaxed);
            }
          }
        } else if (mgr.submit_observe(sid, b).accepted) {
          observes_accepted.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
        // Harvest settled futures so the pending list stays bounded.
        if (pending.size() >= 64) {
          for (auto& f : pending) {
            if (f.get().empty()) {
              empty_results.fetch_add(1, std::memory_order_relaxed);
            }
          }
          pending.clear();
        }
        ++step;
      }
      for (auto& f : pending) {
        if (f.get().empty()) {
          empty_results.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Poller: stats surface racing live plan execution.
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const serve::ServeStats s = mgr.stats();
      EXPECT_GE(s.batched_predicts, 0);
      EXPECT_LE(s.batched_predicts, s.predicts);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (int t = 0; t < kSubmitters; ++t) threads[t].join();
  done.store(true, std::memory_order_relaxed);
  for (size_t t = kSubmitters; t < threads.size(); ++t) threads[t].join();

  mgr.drain();
  mgr.flush();
  const serve::ServeStats s = mgr.stats();
  EXPECT_EQ(s.predicts, predicts_accepted.load());
  EXPECT_EQ(s.observes, observes_accepted.load());
  EXPECT_EQ(s.dispatch_errors, 0);
  EXPECT_EQ(empty_results.load(), 0) << "a predict future resolved empty";
  EXPECT_GT(s.evictions, 0) << "stress never evicted; raise the load";
  // Merging is opportunistic under TSan's scheduling, but bursts of 2-4
  // same-session predicts with a 2ms coalescing window should produce at
  // least one merged window over ~1.5s of load.
  EXPECT_GT(s.predict_batches, 0) << "planner never merged a window";
}

// Zero-copy gather sources under concurrency: the gathered train/eval path
// packs GEMM panels from row pointers into (a) the shared latent cache and
// (b) each learner's ST slab / LT slots. (a) must stay valid while OTHER
// worker threads concurrently miss-insert new latents into the same cache
// (the unbounded cache's stable-reference contract); (b) must stay valid
// across the evict/serialize/restore cycle that destroys and rebuilds the
// slab. This stress drives all of it at once: wide key coverage forces
// concurrent cache inserts mid-gather, and max_resident << sessions keeps
// slabs being torn down and rebuilt while observes and predict bursts run.
TEST_F(ServeRaceSuite, GatherSourcesStableAcrossEvictRestore) {
  constexpr int64_t kSessions = 10;
  constexpr int kSubmitters = 4;
  constexpr auto kDuration = std::chrono::milliseconds(1500);

  serve::ServeConfig sc;
  sc.num_shards = 4;
  sc.max_resident = 4;  // << kSessions: slabs constantly destroyed/rebuilt
  sc.queue_capacity = 16;
  sc.store_dir = util::tmp_path("serve_race_gather");
  sc.base_seed = 31;
  sc.mode = serve::ServeMode::kThreaded;
  serve::SessionStore(sc.store_dir).clear();

  data::StreamConfig stream_cfg = exp_->config().stream;
  stream_cfg.seed = 1313;
  data::DomainIncrementalStream stream(exp_->config().data, stream_cfg);
  // Deliberately NO warm_latents: the first gather over each key races the
  // cache-miss insert path of every other worker.
  const std::vector<data::Batch> batches = stream.batches();
  ASSERT_FALSE(batches.empty());

  serve::SessionManager mgr(sc, factory());
  const auto deadline = Clock::now() + kDuration;
  std::atomic<int64_t> observes_accepted{0};
  std::atomic<int64_t> empty_results{0};
  std::vector<std::thread> threads;

  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      uint64_t step = static_cast<uint64_t>(t) * 7919;
      std::vector<std::future<std::vector<int64_t>>> pending;
      while (Clock::now() < deadline) {
        const uint64_t sid = step % kSessions;
        // Stride the batch stream differently per thread so distinct keys
        // are being gathered and inserted concurrently.
        const data::Batch& b =
            batches[(step * (static_cast<uint64_t>(t) + 1)) % batches.size()];
        if (step % 4 == 3) {
          std::future<std::vector<int64_t>> f;
          if (mgr.submit_predict(sid, b.keys, &f).accepted) {
            pending.push_back(std::move(f));
          }
        } else if (mgr.submit_observe(sid, b).accepted) {
          observes_accepted.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
        if (pending.size() >= 32) {
          for (auto& f : pending) {
            if (f.get().empty()) {
              empty_results.fetch_add(1, std::memory_order_relaxed);
            }
          }
          pending.clear();
        }
        ++step;
      }
      for (auto& f : pending) {
        if (f.get().empty()) {
          empty_results.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (auto& t : threads) t.join();
  mgr.drain();
  mgr.flush();
  const serve::ServeStats s = mgr.stats();
  EXPECT_EQ(s.observes, observes_accepted.load());
  EXPECT_EQ(s.dispatch_errors, 0);
  EXPECT_EQ(empty_results.load(), 0) << "a predict future resolved empty";
  EXPECT_GT(s.evictions, 0) << "stress never evicted; raise the load";
  EXPECT_GT(s.restores, 0) << "stress never restored; raise the load";
}

// Socket front-end under concurrency. The server-side raced surfaces are
// the per-connection mutexes (the I/O thread enqueues acks while shard
// workers' completion hooks enqueue predict replies), the accept / close
// lifecycle, and the read-pause flow control. A deliberately tiny
// SO_SNDBUF makes every sizeable reply go partial so the wire-buffer resume
// path runs constantly, and a churn thread keeps disconnecting with a
// predict still in flight (its hook must find the connection closed and
// drop the reply without leaking).
TEST_F(ServeRaceSuite, NetMultiConnectionStress) {
  constexpr int kClients = 3;
  constexpr int64_t kSessions = 8;
  constexpr auto kDuration = std::chrono::milliseconds(1500);

  serve::ServeConfig sc;
  sc.num_shards = 4;
  sc.max_resident = 4;  // evictions/restores race the wire traffic
  sc.queue_capacity = 16;
  sc.store_dir = util::tmp_path("serve_race_net");
  sc.base_seed = 47;
  sc.mode = serve::ServeMode::kThreaded;
  sc.max_batch = 8;
  serve::SessionStore(sc.store_dir).clear();

  data::StreamConfig stream_cfg = exp_->config().stream;
  stream_cfg.seed = 2121;
  data::DomainIncrementalStream stream(exp_->config().data, stream_cfg);
  exp_->warm_latents(stream);
  const std::vector<data::Batch> batches = stream.batches();
  ASSERT_FALSE(batches.empty());

  serve::SessionManager mgr(sc, factory());
  net::NetConfig nc;
  nc.unix_path = util::tmp_path("serve_race_net.sock");
  nc.sndbuf_bytes = 4096;            // replies go partial: resume path hot
  nc.outbox_limit_bytes = 64 << 10;  // read-pause flow control engages
  net::NetServer server(mgr, nc);
  const net::ClientOptions copts{net::Transport::kUnix, nc.unix_path, 0};

  const auto deadline = Clock::now() + kDuration;
  std::atomic<int64_t> observes_ok{0};
  std::atomic<int64_t> predicts_ok{0};
  std::atomic<int64_t> empty_results{0};
  std::vector<std::thread> threads;

  // Steady clients: pipelined predict bursts + sequenced observes + STATS.
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      net::NetClient client(copts);
      uint64_t step = static_cast<uint64_t>(t) * 104729;
      std::vector<uint64_t> ids;
      while (Clock::now() < deadline) {
        const uint64_t sid = step % kSessions;
        const data::Batch& b = batches[step % batches.size()];
        if (step % 3 != 0) {
          const int burst = 2 + static_cast<int>(step % 3);
          ids.clear();
          for (int i = 0; i < burst; ++i) {
            ids.push_back(client.send_predict(sid, b.keys));
          }
          for (uint64_t id : ids) {
            net::Reply r = client.await_reply(id);
            if (r.ok()) {
              predicts_ok.fetch_add(1, std::memory_order_relaxed);
              if (r.preds.empty()) {
                empty_results.fetch_add(1, std::memory_order_relaxed);
              }
            } else {
              EXPECT_TRUE(r.backpressured())
                  << net::err_code_name(r.error.code);
            }
          }
        } else if (step % 24 == 12) {
          net::Reply r = client.stats_json();
          EXPECT_TRUE(r.ok());
          EXPECT_FALSE(r.json.empty());
        } else {
          net::Reply r = client.observe(sid, b);
          if (r.ok()) {
            observes_ok.fetch_add(1, std::memory_order_relaxed);
          } else {
            EXPECT_TRUE(r.backpressured()) << net::err_code_name(r.error.code);
            std::this_thread::yield();
          }
        }
        ++step;
      }
    });
  }

  // Churn: connect, pipeline a predict, disconnect with it in flight. Its
  // hook drops the reply; the I/O thread retires the closed connection
  // while the steady clients keep it busy.
  threads.emplace_back([&] {
    uint64_t step = 1;
    while (Clock::now() < deadline) {
      net::NetClient brief(copts);
      (void)brief.send_predict(step % kSessions,
                               batches[step % batches.size()].keys);
      // Destructor closes the socket with the reply (probably) unsent.
      ++step;
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });

  for (auto& t : threads) t.join();
  server.stop();  // graceful drain with zero clients left

  const serve::ServeStats s = mgr.stats();
  const net::NetStats ns = server.stats();
  EXPECT_EQ(s.dispatch_errors, 0);
  EXPECT_EQ(empty_results.load(), 0) << "a predict reply arrived empty";
  EXPECT_EQ(s.observes, observes_ok.load());
  EXPECT_GE(s.predicts, predicts_ok.load());  // churn predicts also admitted
  EXPECT_EQ(ns.connections_accepted, ns.connections_closed);
  EXPECT_GT(ns.connections_accepted, kClients);  // churn reconnected
  EXPECT_EQ(ns.err_malformed, 0);
  EXPECT_EQ(ns.err_bad_crc, 0);
  EXPECT_EQ(ns.err_dispatch, 0);
  EXPECT_GT(s.evictions, 0) << "stress never evicted; raise the load";
}

TEST(WorkspaceRace, StatsPolledDuringOwnerAllocation) {
  constexpr auto kDuration = std::chrono::milliseconds(500);
  const auto deadline = Clock::now() + kDuration;
  std::atomic<bool> stop{false};

  // Owner threads: grow, rewind and consolidate their thread-local arenas
  // as fast as possible (every alloc updates the gauges ws::stats reads).
  std::vector<std::thread> owners;
  for (int t = 0; t < 2; ++t) {
    owners.emplace_back([&] {
      uint64_t n = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        ws::ArenaScope scope;
        float* p = scope.floats(64 + (n % 4096));
        p[0] = 1.0f;  // touch so the alloc is not optimised out
        ++n;
      }
    });
  }

  while (Clock::now() < deadline) {
    const ws::WorkspaceStats s = ws::stats();
    EXPECT_GE(s.arena_reserved_bytes, 0);
    EXPECT_GE(s.arena_high_water_bytes, 0);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : owners) t.join();
}

TEST(ThreadPoolRace, StatsAndResizeDuringParallelFor) {
  constexpr auto kDuration = std::chrono::milliseconds(500);
  const auto deadline = Clock::now() + kDuration;
  const int prev = num_threads();
  std::atomic<bool> stop{false};

  std::thread poller([&] {
    int flip = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      EXPECT_GE(num_threads(), 1);
      set_num_threads(2 + (flip++ % 3));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<int64_t> out(1 << 14, 0);
  while (Clock::now() < deadline) {
    parallel_for(0, static_cast<int64_t>(out.size()), [&](int64_t b,
                                                          int64_t e) {
      for (int64_t i = b; i < e; ++i) out[static_cast<size_t>(i)] += i;
    });
  }
  stop.store(true, std::memory_order_relaxed);
  poller.join();
  set_num_threads(prev);
}

}  // namespace
}  // namespace cham
