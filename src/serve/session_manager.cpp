#include "serve/session_manager.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>
#include <utility>

#include "tensor/rng.h"
#include "tensor/thread_pool.h"
#include "util/check.h"

namespace cham::serve {
namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Resolve a predict's promise, then run its completion hook. Every path
// that finishes a predict goes through one of these two, so the hook runs
// exactly once, after the result is visible through the future.
void resolve(Request& r, std::vector<int64_t> out) {
  r.reply->set_value(std::move(out));
  if (r.done) r.done();
}

// Must be called from a catch block: relays the exception in flight.
void fail(Request& r) {
  r.reply->set_exception(std::current_exception());
  if (r.done) r.done();
}

}  // namespace

SessionManager::SessionManager(ServeConfig cfg, LearnerFactory factory)
    : cfg_(std::move(cfg)),
      factory_(std::move(factory)),
      planner_(BatchPlannerConfig{cfg_.max_batch}),
      store_(cfg_.store_dir) {
  CHAM_CHECK(cfg_.num_shards >= 1, "SessionManager: need at least one shard");
  CHAM_CHECK(cfg_.queue_capacity >= 1,
             "SessionManager: queue capacity must be positive");
  CHAM_CHECK(cfg_.max_batch >= 1,
             "SessionManager: max_batch must be positive");
  CHAM_CHECK(cfg_.max_resident >= cfg_.num_shards,
             "SessionManager: max_resident " +
                 std::to_string(cfg_.max_resident) + " below num_shards " +
                 std::to_string(cfg_.num_shards) +
                 " (each shard dispatcher may pin one session)");
  CHAM_CHECK(static_cast<bool>(factory_),
             "SessionManager: learner factory is empty");
  write_behind_ = std::make_unique<WriteBehind>(
      store_, WriteBehindConfig{cfg_.snapshot_cache_bytes});
  shards_.reserve(static_cast<size_t>(cfg_.num_shards));
  for (int64_t i = 0; i < cfg_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (cfg_.mode == ServeMode::kThreaded) {
    // Shard-level parallelism replaces intra-op parallelism: with the pool
    // at 1 thread, parallel_for short-circuits to an inline call, which is
    // safe from any number of shard workers and bit-identical to every
    // other thread count.
    prev_num_threads_ = num_threads();
    set_num_threads(1);
    for (auto& shard : shards_) {
      shard->worker = std::thread([this, &shard] { worker_loop(*shard); });
    }
  }
}

SessionManager::~SessionManager() {
  flush();
  if (cfg_.mode == ServeMode::kThreaded) {
    // Relaxed store: every worker loads stop_ while holding its shard mutex,
    // which this thread locks (below) after the store — the mutex hand-off
    // publishes the flag (memory-ordering policy case 1, util/sync.h).
    stop_.store(true, std::memory_order_relaxed);
    for (auto& shard : shards_) {
      util::MutexLock lock(shard->mu);
      shard->cv.notify_all();
    }
    for (auto& shard : shards_) {
      if (shard->worker.joinable()) shard->worker.join();
    }
    set_num_threads(prev_num_threads_);
  }
}

int64_t SessionManager::shard_of(uint64_t session_id) const {
  // splitmix64 spreads adjacent ids across shards uniformly.
  return static_cast<int64_t>(splitmix64(session_id) %
                              static_cast<uint64_t>(cfg_.num_shards));
}

uint64_t SessionManager::session_seed(uint64_t session_id) const {
  return split_seed(cfg_.base_seed, session_id);
}

Admission SessionManager::enqueue(int64_t shard_idx, Request r) {
  Shard& shard = *shards_[static_cast<size_t>(shard_idx)];
  int64_t depth = 0;
  bool accepted = false;
  double hint_ms = 0;
  {
    util::MutexLock lock(shard.mu);
    depth = static_cast<int64_t>(shard.queue.size());
    if (depth < cfg_.queue_capacity) {
      shard.queue.push_back(std::move(r));
      ++depth;
      accepted = true;
    } else {
      // Backpressure hint scaled to the observed drain rate: roughly one
      // full queue-drain at this shard's EWMA per-request dispatch time,
      // floored at the configured hint and capped so a stalled shard never
      // tells callers to go away for minutes.
      hint_ms = std::clamp(static_cast<double>(depth) * shard.ewma_dispatch_ms,
                           static_cast<double>(cfg_.retry_hint_ms),
                           static_cast<double>(cfg_.retry_hint_max_ms));
    }
  }
  // Stats are recorded with shard.mu released: the rejection path used to
  // take stats_mu_ while still holding the queue mutex, stretching the
  // admission critical section over an unrelated lock. stats_mu_ is a leaf
  // that never needs to nest under a Shard::mu.
  {
    util::MutexLock slock(stats_mu_);
    ++stats_.submitted;
    if (accepted) {
      ++stats_.admissions;
      stats_.queue_depth_high_water =
          std::max(stats_.queue_depth_high_water, depth);
    } else {
      ++stats_.rejections;
      stats_.record_retry_hint_ms(hint_ms);
    }
  }
  if (!accepted) {
    return {false, static_cast<int64_t>(std::ceil(hint_ms)), depth};
  }
  if (cfg_.mode == ServeMode::kThreaded) shard.cv.notify_one();
  return {true, 0, depth};
}

Admission SessionManager::submit_observe(uint64_t session_id,
                                         const data::Batch& batch) {
  Request r;
  r.kind = Request::Kind::kObserve;
  r.session_id = session_id;
  r.batch = batch;
  return enqueue(shard_of(session_id), std::move(r));
}

Admission SessionManager::submit_predict(
    uint64_t session_id, const std::vector<data::ImageKey>& keys,
    std::future<std::vector<int64_t>>* result, std::function<void()> done) {
  // The promise is shared with the queued request: if dispatch throws (or
  // the submitting frame unwinds), neither side holds a dangling pointer,
  // and an exception set by the dispatcher re-surfaces from result.get().
  //
  // The future is stored BEFORE the request is queued: once enqueue()
  // releases the shard mutex, a worker may dispatch it and run `done`,
  // which may read *result. That mutex orders the store before the hook;
  // nothing here touches *result after an admission.
  auto reply = std::make_shared<std::promise<std::vector<int64_t>>>();
  if (result) *result = reply->get_future();
  Request r;
  r.kind = Request::Kind::kPredict;
  r.session_id = session_id;
  r.keys = keys;
  r.reply = std::move(reply);
  r.done = std::move(done);
  const Admission adm = enqueue(shard_of(session_id), std::move(r));
  if (!adm.accepted && result) *result = {};
  return adm;
}

std::optional<std::vector<int64_t>> SessionManager::predict(
    uint64_t session_id, const std::vector<data::ImageKey>& keys,
    Admission* admission) {
  std::future<std::vector<int64_t>> result;
  const Admission adm = submit_predict(session_id, keys, &result);
  if (admission) *admission = adm;
  if (!adm.accepted) return std::nullopt;
  // FIFO ordering: the request must be dispatched before returning —
  // deterministically by draining the shard here, or by blocking on the
  // worker in threaded mode.
  if (cfg_.mode == ServeMode::kDeterministic) {
    drain_shard(shard_of(session_id));
  }
  return result.get();
}

void SessionManager::drain() {
  if (cfg_.mode == ServeMode::kDeterministic) {
    // Serialise caller-driven dispatch: concurrent drainers must not
    // interleave pops of the same session's queue.
    util::MutexLock det(det_dispatch_mu_);
    // Round-robin one step per shard per pass: a deterministic interleaving
    // that exercises cross-session switching (and therefore eviction)
    // harder than draining shard-by-shard would.
    for (bool any = true; any;) {
      any = false;
      for (auto& shard : shards_) any = run_once(*shard) || any;
    }
    return;
  }
  for (auto& shard : shards_) {
    util::MutexLock lock(shard->mu);
    // Stop-aware: a worker that exited on shutdown can no longer drain its
    // queue, so waiting for emptiness would hang forever.
    shard->cv_idle.wait(lock, [this, &shard]() CHAM_REQUIRES(shard->mu) {
      return stop_.load(std::memory_order_relaxed) ||
             (shard->queue.empty() && shard->in_flight == 0);
    });
  }
}

void SessionManager::drain_shard(int64_t shard_idx) {
  util::MutexLock det(det_dispatch_mu_);
  while (run_once(*shards_[static_cast<size_t>(shard_idx)])) {
  }
}

void SessionManager::worker_loop(Shard& shard) {
  for (;;) {
    {
      util::MutexLock lock(shard.mu);
      shard.cv.wait(lock, [this, &shard]() CHAM_REQUIRES(shard.mu) {
        return stop_.load(std::memory_order_relaxed) || !shard.queue.empty();
      });
      if (shard.queue.empty()) {
        // stop_ set and no work left. Wake any drain() racing shutdown:
        // nobody will notify cv_idle after this thread exits.
        shard.cv_idle.notify_all();
        return;
      }
    }
    run_once(shard);  // only this worker pops the shard: the queue is non-empty
  }
}

bool SessionManager::run_once(Shard& shard) {
  std::vector<Request> eligible;
  Request single;
  int64_t items = 0;
  {
    util::MutexLock lock(shard.mu);
    // cham-lint: begin(batch_plan)
    planner_.take_eligible(shard.queue, eligible);
    // cham-lint: end(batch_plan)
    items = static_cast<int64_t>(eligible.size());
    if (items == 0) {
      // cham-lint: begin(dispatch)
      if (shard.queue.empty()) return false;
      single = std::move(shard.queue.front());
      shard.queue.pop_front();
      // cham-lint: end(dispatch)
      items = 1;
    }
    shard.in_flight += items;
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (eligible.empty()) {
    dispatch(single);
  } else {
    dispatch_plan(planner_.finalize(std::move(eligible)));
  }
  const double per_item = ms_since(t0) / static_cast<double>(items);
  util::MutexLock lock(shard.mu);
  shard.ewma_dispatch_ms = shard.ewma_dispatch_ms == 0
                               ? per_item
                               : 0.8 * shard.ewma_dispatch_ms + 0.2 * per_item;
  // The completion hooks have returned, so a drain() woken here (a FLUSH
  // among them) is ordered after every reply they produced.
  shard.in_flight -= items;
  if (shard.queue.empty() && shard.in_flight == 0) shard.cv_idle.notify_all();
  return true;
}

void SessionManager::note_dispatch_error() {
  util::MutexLock slock(stats_mu_);
  ++stats_.dispatch_errors;
}

void SessionManager::dispatch_plan(BatchPlan plan) {
  // Groups run strictly one at a time: acquire, evaluate, release. Lazy
  // acquisition means this dispatcher never holds more than one pin — the
  // budget the max_resident >= num_shards spare-victim invariant allots it
  // — so every acquire is free to evict (possibly a session a LATER group
  // of this very plan needs; the restore is bit-exact, so that only costs
  // a round-trip, never a result bit).
  int64_t served = 0, windows = 0, merged = 0, max_window = 0;
  for (const PlanGroup& g : plan.groups) {
    core::ChameleonLearner* learner = nullptr;
    try {
      learner = acquire_session(g.session_id);
    } catch (...) {
      // Nothing is pinned (acquire un-reserves on its way out). Fail just
      // this group; the rest of the plan still runs.
      for (size_t i = g.begin; i < g.end; ++i) {
        note_dispatch_error();
        fail(plan.items[i]);
      }
      continue;
    }
    const size_t n_reqs = g.end - g.begin;
    // All results are computed before any finish_dispatch: the last
    // finish releases the pin, after which the learner may be evicted.
    std::vector<std::vector<int64_t>> results(n_reqs);
    bool ok = true;
    try {
      // Merged evaluation in windows of <= max_batch requests. Splitting a
      // stacked eval is row-exact (eval-mode layers are row-independent),
      // so the window size never changes any request's result.
      for (size_t w0 = g.begin; w0 < g.end;) {
        const size_t w1 =
            std::min(g.end, w0 + static_cast<size_t>(cfg_.max_batch));
        if (w1 - w0 == 1) {
          results[w0 - g.begin] = learner->predict_batch(
              std::span<const data::ImageKey>(plan.items[w0].keys));
        } else {
          std::vector<data::ImageKey> keys;
          size_t rows = 0;
          for (size_t i = w0; i < w1; ++i) rows += plan.items[i].keys.size();
          keys.reserve(rows);
          for (size_t i = w0; i < w1; ++i) {
            keys.insert(keys.end(), plan.items[i].keys.begin(),
                        plan.items[i].keys.end());
          }
          const std::vector<int64_t> out = learner->predict_batch(
              std::span<const data::ImageKey>(keys));
          // Scatter: each request owns a contiguous run of rows.
          size_t off = 0;
          for (size_t i = w0; i < w1; ++i) {
            const size_t len = plan.items[i].keys.size();
            results[i - g.begin].assign(out.begin() + static_cast<ptrdiff_t>(off),
                                        out.begin() +
                                            static_cast<ptrdiff_t>(off + len));
            off += len;
          }
          ++windows;
          merged += static_cast<int64_t>(w1 - w0);
          max_window = std::max(max_window, static_cast<int64_t>(w1 - w0));
        }
        w0 = w1;
      }
    } catch (...) {
      ok = false;
      for (size_t i = g.begin; i < g.end; ++i) {
        finish_dispatch(plan.items[i], /*ok=*/false,
                        /*release_pin=*/i + 1 == g.end);
        note_dispatch_error();
        fail(plan.items[i]);
      }
    }
    if (!ok) continue;
    for (size_t i = g.begin; i < g.end; ++i) {
      // The pin drops only with the LAST request of the group; after that
      // another shard may evict and free the learner.
      finish_dispatch(plan.items[i], /*ok=*/true,
                      /*release_pin=*/i + 1 == g.end);
      resolve(plan.items[i], std::move(results[i - g.begin]));
      ++served;
    }
  }

  util::MutexLock slock(stats_mu_);
  stats_.predicts += served;
  stats_.predict_batches += windows;
  stats_.batched_predicts += merged;
  stats_.batch_size_max = std::max(stats_.batch_size_max, max_window);
}

void SessionManager::dispatch(Request& r) {
  // One error rule in both modes: count the failure, relay it through the
  // promise for a predict, and keep dispatching.
  core::ChameleonLearner* learner = nullptr;
  std::vector<int64_t> out;
  try {
    // acquire_session un-reserves on its way out; nothing is pinned if it
    // throws. Execute unpinned from sessions_mu_: other shards keep
    // admitting and evicting while this session trains (it is protected by
    // its in_use pin).
    learner = acquire_session(r.session_id);
    if (r.kind == Request::Kind::kObserve) {
      learner->observe(r.batch);
    } else {
      out = learner->predict(r.keys);
    }
  } catch (...) {
    // Release the pin (a permanently pinned session deadlocks eviction and
    // flush) and invalidate the op log before surfacing the error.
    if (learner) finish_dispatch(r, /*ok=*/false);
    note_dispatch_error();
    if (r.reply) fail(r);
    return;
  }
  finish_dispatch(r, /*ok=*/true);
  {
    util::MutexLock slock(stats_mu_);
    ++(r.kind == Request::Kind::kObserve ? stats_.observes : stats_.predicts);
  }
  if (r.reply) resolve(r, std::move(out));
}

void SessionManager::finish_dispatch(Request& r, bool ok, bool release_pin) {
  util::MutexLock lock(sessions_mu_);
  // cham-lint: begin(sessions_mu)
  auto it = sessions_.find(r.session_id);
  CHAM_CHECK(it != sessions_.end(),
             "SessionManager: releasing unknown session");
  Session& session = it->second;
  if (!ok) {
    // The op may have mutated state without completing; an op-log replay
    // would diverge. Force the next snapshot to full form.
    session.dirty = true;
    session.ops_valid = false;
    session.ops.clear();
  } else if (r.kind == Request::Kind::kObserve) {
    // Only observes change state; a predict leaves the session as clean
    // as it was and is never logged.
    session.dirty = true;
    if (session.ops_valid) {
      if (static_cast<int64_t>(session.ops.size()) >=
          WriteBehind::kMaxReplayOps) {
        // Bounded log: past the replay cap an op-log delta would never be
        // encoded anyway; stop accumulating (the next flush writes full).
        session.ops_valid = false;
        session.ops.clear();
      } else {
        data::ServeOp op;
        op.batch = std::move(r.batch);
        session.ops.push_back(std::move(op));
      }
    }
  }
  if (release_pin) session.in_use = false;
  // cham-lint: end(sessions_mu)
}

core::ChameleonLearner* SessionManager::acquire_session(uint64_t session_id) {
  util::MutexLock lock(sessions_mu_);
  // cham-lint: begin(sessions_mu)
  for (;;) {
    // Re-look-up every iteration: eviction releases the lock mid-loop and
    // the map may rehash under concurrent admissions.
    Session& session = sessions_[session_id];
    if (session.evicting) {
      // This session's learner was just unlinked by an eviction whose
      // snapshot has not reached the write-behind pipeline yet. Restoring
      // now would read the PREVIOUS flush's bytes — silently stale state.
      // Wait for snapshot_and_submit to publish, then re-look-up.
      evict_cv_.wait(lock, [this, session_id]() CHAM_REQUIRES(sessions_mu_) {
        auto it = sessions_.find(session_id);
        return it == sessions_.end() || !it->second.evicting;
      });
      continue;
    }
    if (session.learner) {
      CHAM_CHECK(!session.in_use,
                 "SessionManager: session " + std::to_string(session_id) +
                     " dispatched concurrently (shard routing broken)");
      session.in_use = true;
      session.last_used = ++tick_;
      return session.learner.get();
    }
    if (resident_ < cfg_.max_resident) break;
    // Evict before reserving: this dispatcher must hold no pin while
    // evicting, or the max_resident >= num_shards spare-victim invariant
    // breaks. Unlink under the lock (pointer moves only), serialise and
    // hand off with it released.
    EvictedVictim victim = unlink_victim();
    // cham-lint: end(sessions_mu)
    lock.unlock();
    snapshot_and_submit(std::move(victim));
    lock.lock();
    // cham-lint: begin(sessions_mu)
  }
  // Reserve the residency slot and pin it before dropping the lock: other
  // dispatchers must neither evict this slot (no learner yet -> eviction
  // scans skip it) nor overfill the pool while this one materialises.
  {
    Session& session = sessions_[session_id];
    session.in_use = true;
    session.last_used = ++tick_;
  }
  ++resident_;
  {
    util::MutexLock slock(stats_mu_);
    stats_.resident_high_water =
        std::max(stats_.resident_high_water, resident_);
  }
  // cham-lint: end(sessions_mu)
  lock.unlock();

  // Materialise with no locks held: factory construction, restore I/O and
  // op-log replay are the slow path.
  std::unique_ptr<core::ChameleonLearner> fresh;
  bool dirty = false;
  try {
    fresh = materialize_session(session_id, dirty);
  } catch (...) {
    // Un-reserve so the slot does not leak (the session stays evicted /
    // absent; a later request may retry).
    lock.lock();
    Session& session = sessions_[session_id];
    session.in_use = false;
    --resident_;
    throw;
  }

  lock.lock();
  // cham-lint: begin(sessions_mu)
  Session& session = sessions_[session_id];
  session.learner = std::move(fresh);
  session.ops.clear();
  session.ops_valid = true;
  session.dirty = dirty;
  session.last_used = ++tick_;
  return session.learner.get();
  // cham-lint: end(sessions_mu)
}

std::unique_ptr<core::ChameleonLearner> SessionManager::materialize_session(
    uint64_t session_id, bool& dirty) {
  auto fresh = factory_(session_id, session_seed(session_id));
  CHAM_CHECK(fresh != nullptr, "SessionManager: factory returned null");

  // Restore priority: the write-behind pipeline's newest copy (pending,
  // mid-flush, or cached) is authoritative — a restore racing its own
  // flush must read the exact bytes eviction produced.
  bool pending = false;
  if (auto blob = write_behind_->newest_blob(session_id, &pending)) {
    const auto t0 = std::chrono::steady_clock::now();
    core::ByteBufReader is(blob->data(), blob->size());
    const bool ok = fresh->load_state(is);
    CHAM_CHECK(ok, "SessionManager: corrupt in-memory snapshot for id " +
                       std::to_string(session_id));
    util::MutexLock slock(stats_mu_);
    ++stats_.restores;
    ++(pending ? stats_.pending_restores : stats_.cache_restores);
    stats_.record_restore_ms(ms_since(t0));
    return fresh;
  }

  if (!store_.contains(session_id)) {
    util::MutexLock slock(stats_mu_);
    ++stats_.creates;
    return fresh;
  }

  // Disk: the store replays a live op-log delta and verifies its target
  // hash. A restore that applied one is dirty, so the first eviction lands
  // one full blob and later cold restores replay nothing.
  const auto t0 = std::chrono::steady_clock::now();
  SessionStore::LoadInfo info;
  const bool ok = store_.load(session_id, *fresh, &info);
  CHAM_CHECK(ok, "SessionManager: stored session " +
                     std::to_string(session_id) +
                     " failed to load (corrupt blob or delta, or op-log "
                     "replay hash mismatch)");
  dirty = info.applied_delta;
  util::MutexLock slock(stats_mu_);
  ++stats_.restores;
  ++stats_.disk_restores;
  stats_.replayed_ops += info.replayed_ops;
  stats_.record_restore_ms(ms_since(t0));
  return fresh;
}

SessionManager::EvictedVictim SessionManager::unlink_victim() {
  // Lock-held portion of an eviction: victim selection and unlink. Pointer
  // moves only: cham_lint's io-in-sessions-mu rule keeps serialisation out
  // of this region, and perfbench reports lock_ms as
  // acquire.evict_lock_ms_max. The caller releases sessions_mu_ before
  // serialising the returned victim.
  // cham-lint: begin(sessions_mu)
  const auto t_lock = std::chrono::steady_clock::now();
  uint64_t victim_id = 0;
  Session* victim = nullptr;
  for (auto& [id, session] : sessions_) {
    if (!session.learner || session.in_use) continue;
    if (!victim || session.last_used < victim->last_used) {
      victim = &session;
      victim_id = id;
    }
  }
  // max_resident >= num_shards guarantees a spare: at most num_shards - 1
  // other sessions are pinned while one dispatcher is admitting.
  CHAM_CHECK(victim != nullptr,
             "SessionManager: no evictable session (all pinned)");
  EvictedVictim out;
  out.session_id = victim_id;
  out.learner = std::move(victim->learner);
  out.ops = std::move(victim->ops);
  out.ops_valid = victim->ops_valid;
  out.dirty = victim->dirty;
  victim->ops.clear();
  victim->ops_valid = true;
  victim->dirty = false;
  victim->evicting = true;
  --resident_;
  out.lock_ms = ms_since(t_lock);
  return out;
  // cham-lint: end(sessions_mu)
}

void SessionManager::snapshot_and_submit(EvictedVictim victim) {
  // Unlocked portion of an eviction: serialise into a pool-backed snapshot
  // and hand it to the write-behind pipeline. Other shards admit/evict/
  // dispatch freely during this.
  //
  // A clean victim is dropped unwritten. Its newest bytes are already
  // pending or in flight in the pipeline, cached there (pinned while not
  // durable or while a delta is outstanding), durable on disk, or nowhere
  // at all for a never-observed session, which is its factory state.
  const bool clean = !victim.dirty;
  CHAM_DCHECK(!clean || (victim.ops.empty() && victim.ops_valid),
              "SessionManager: clean victim carries logged observes");
  const auto t0 = std::chrono::steady_clock::now();
  WriteBehind::Snapshot snap;
  if (!clean) {
    auto blob = std::make_shared<core::ByteBuf>();
    {
      core::ByteBufWriter os(*blob);
      const bool ok = victim.learner->save_state(os);
      CHAM_CHECK(ok, "SessionManager: failed to serialise session " +
                         std::to_string(victim.session_id));
    }
    snap.session_id = victim.session_id;
    snap.blob = std::move(blob);
    snap.ops = std::move(victim.ops);
    snap.ops_valid = victim.ops_valid;
  }
  victim.learner.reset();  // destroy outside the lock too
  const double save_ms = ms_since(t0);
  if (!clean) write_behind_->submit(std::move(snap));

  // The newest bytes are where a restore looks; unblock any dispatcher
  // that queued up to rematerialise this session.
  {
    util::MutexLock lock(sessions_mu_);
    sessions_[victim.session_id].evicting = false;
  }
  evict_cv_.notify_all();

  util::MutexLock slock(stats_mu_);
  ++stats_.evictions;
  if (clean) ++stats_.clean_evictions;
  stats_.record_save_ms(save_ms);
  stats_.record_evict_lock_ms(victim.lock_ms);
}

void SessionManager::flush() {
  drain();
  {
    util::MutexLock lock(sessions_mu_);
    // cham-lint: begin(sessions_mu)
    while (resident_ > 0) {
      EvictedVictim victim = unlink_victim();
      // cham-lint: end(sessions_mu)
      lock.unlock();
      snapshot_and_submit(std::move(victim));
      lock.lock();
      // cham-lint: begin(sessions_mu)
    }
    // cham-lint: end(sessions_mu)
  }
  // Settle the pipeline. Base + delta pairs stay as they landed (any
  // SessionStore::load replays them); only a failed flush is retried, as
  // its newest state lives nowhere but the cache.
  write_behind_->drain();
  write_behind_->retry_failed_flushes();
}

ServeStats SessionManager::stats() const {
  ServeStats snapshot;
  {
    util::MutexLock lock(stats_mu_);
    snapshot = stats_;
  }
  static_cast<WriteBehindStats&>(snapshot) = write_behind_->stats();
  return snapshot;
}

int64_t SessionManager::resident_count() const {
  util::MutexLock lock(sessions_mu_);
  return resident_;
}

}  // namespace cham::serve
