// Write-behind, delta-compressed checkpoint flushing for session eviction.
//
// Eviction used to serialise the full CHS2 blob to disk while holding the
// manager's global sessions_mu_, so one shard's eviction stalled admission,
// restore and dispatch on every shard (save_ms_max was 63ms). The pipeline
// here splits that work in three:
//
//   1. SNAPSHOT (dispatch thread, lock NOT held): the SessionManager
//      serialises the victim into a pool-backed in-memory buffer after
//      unlinking it under the lock — the lock-held portion is pointer
//      moves only.
//   2. QUEUE: the snapshot is handed to this class. One background IO
//      thread owns all disk traffic; snapshots for the same session
//      coalesce in the pending map (only the newest state matters).
//   3. FLUSH (IO thread): the blob is written to the SessionStore as
//      either a full blob or a CHS3 op-log delta against the session's
//      last full blob: the observes served since the base was flushed
//      (predicts are state-pure, so the log never carries them, and a
//      session that served only predicts is not resubmitted at all — see
//      serve/session_manager.h). A restore replays them; the repo's
//      bit-determinism contract makes the result byte-identical, and the
//      frame's hash of the target blob verifies it. After 8 consecutive
//      deltas, when the log is longer than kMaxReplayOps observes, or when
//      the frame would exceed half the full blob, the blob is written full
//      instead — compaction that bounds both restore replay cost and disk
//      state. Only the base's hash and length are kept for encoding, never
//      its bytes.
//
// RESTORE CORRECTNESS: newest_blob() returns the most recent state the
// pipeline holds for a session — the pending (not yet flushed) snapshot,
// the one mid-flush, or the cached last-flushed blob — so a restore racing
// its own flush reads the exact bytes eviction produced, bit-identically,
// no matter where the IO thread is. Only when the pipeline holds nothing
// (a full landing, a process restart) does the manager fall back to disk.
//
// FLUSH FAILURE (disk full): the error is counted, the on-disk state keeps
// its previous (intact, older) blob, and the in-memory cache keeps serving
// the newest state — sessions stay correct; only crash-durability of the
// latest delta is lost until a later flush succeeds.
//
// SNAPSHOT CACHE: a session's last-flushed blob stays cached only while
// disk cannot serve it without replay (it landed as an op-log delta, or
// its flush failed) and no newer snapshot is queued. A cached blob counts
// the workspace-pool block its buffer occupies (ws::pool_block_bytes of its
// capacity), not its length, so the budget bounds memory. Over
// snapshot_cache_bytes, the LRU delta session is queued as an ordinary
// full write (ops_valid = false): its bytes leave the budget at once,
// restores find it in pending_, and the IO thread stays the only disk
// writer. wb_cache_bytes_high_water is taken before that trim, so the
// peak is at most the budget plus the blob that just landed, unless
// blobs whose flush failed (never queued by pressure) fill the cache.
//
// SHUTDOWN: SessionManager::flush() evicts, drains, and calls
// retry_failed_flushes(). Base + delta pairs stay on disk as they landed;
// SessionStore::load replays them.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/checkpoint.h"
#include "data/stream.h"
#include "serve/serve_stats.h"
#include "serve/session_store.h"
#include "util/sync.h"

namespace cham::serve {

class WriteBehind {
 public:
  // Longest op log a delta may carry (bounds restore replay cost). The
  // manager stops logging a session's observes past it.
  static constexpr int64_t kMaxReplayOps = 64;

  // One eviction's snapshot: the full serialised state plus the observes
  // the session served since its previous snapshot (for op-log deltas).
  struct Snapshot {
    uint64_t session_id = 0;
    std::shared_ptr<const core::ByteBuf> blob;
    std::vector<data::ServeOp> ops;
    bool ops_valid = true;  // false: op log overflowed or a dispatch failed
  };

  WriteBehind(SessionStore& store, int64_t snapshot_cache_bytes);
  ~WriteBehind();  // drains the queue, then stops the IO thread

  WriteBehind(const WriteBehind&) = delete;
  WriteBehind& operator=(const WriteBehind&) = delete;

  // Hands a snapshot to the pipeline. Never blocks on disk. Snapshots for
  // a session already queued coalesce: blobs replace, op logs concatenate.
  void submit(Snapshot snap) CHAM_EXCLUDES(mu_);

  // The newest state bytes the pipeline holds for the session (pending,
  // mid-flush, or cached last-flushed), or null if it holds none and the
  // caller must go to the SessionStore. The buffer is immutable. When
  // `pending` is given, it is set to true iff the blob had not finished
  // flushing yet (pending or mid-flush) — i.e. the restore raced its own
  // write-behind.
  std::shared_ptr<const core::ByteBuf> newest_blob(uint64_t session_id,
                                                   bool* pending = nullptr)
      CHAM_EXCLUDES(mu_);

  // Blocks until every queued snapshot has been flushed (or failed).
  void drain() CHAM_EXCLUDES(mu_);

  // Queues a full write of every session whose last flush failed (its
  // newest state lives only in the cache), then drains.
  // SessionManager::flush() calls it after drain().
  void retry_failed_flushes() CHAM_EXCLUDES(mu_);

  WriteBehindStats stats() const CHAM_EXCLUDES(mu_);
  // Bytes the snapshot cache holds right now: the pool blocks of the cached
  // `latest` blobs.
  int64_t cached_bytes() const CHAM_EXCLUDES(mu_);

  // Test hooks: freeze/unfreeze the IO thread so restore-during-flush
  // interleavings can be produced deterministically, without sleeps.
  void pause_for_test() CHAM_EXCLUDES(mu_);
  void resume_for_test() CHAM_EXCLUDES(mu_);

 private:
  struct Meta {
    // Hash and length of the last blob flushed as a FULL blob (the delta
    // base).
    uint64_t base_hash = 0;
    uint64_t base_len = 0;
    bool has_base = false;
    // Last flushed blob, cached while it landed as a delta or its flush
    // failed and no newer snapshot is queued (see file comment); null
    // otherwise.
    std::shared_ptr<const core::ByteBuf> latest;
    bool durable = false;  // disk holds the newest flushed state
    // Ops spanning base -> last flushed blob (for the next op-log delta).
    std::vector<data::ServeOp> ops_since_base;
    bool ops_valid = true;
    int64_t deltas_since_full = 0;
    uint64_t lru_tick = 0;
  };

  void io_loop() CHAM_EXCLUDES(mu_);
  // Encodes + writes one snapshot: the only caller of SessionStore::put_*.
  // Takes mu_ twice internally, never across the encode or the write.
  void flush_one(Snapshot snap) CHAM_EXCLUDES(mu_);
  // Under mu_: appends a snapshot for a session with nothing pending and
  // releases the session's cached blob, which the snapshot supersedes.
  void enqueue_locked(Snapshot snap) CHAM_REQUIRES(mu_);
  // Under mu_: queues LRU durable entries for compaction down to budget.
  void enforce_cache_budget_locked() CHAM_REQUIRES(mu_);

  SessionStore& store_;
  const int64_t cache_budget_;

  // A leaf: nothing else is acquired under it, the SessionStore included.
  mutable util::Mutex mu_;
  util::CondVar cv_;       // IO thread: work available / stop
  util::CondVar cv_idle_;  // drain(): queue empty, nothing mid-flush
  std::deque<uint64_t> queue_ CHAM_GUARDED_BY(mu_);  // flush order
  std::unordered_map<uint64_t, Snapshot> pending_
      CHAM_GUARDED_BY(mu_);  // newest unflushed state
  std::unordered_map<uint64_t, std::shared_ptr<const core::ByteBuf>>
      inflight_ CHAM_GUARDED_BY(mu_);  // blob currently being written
  std::unordered_map<uint64_t, Meta> meta_ CHAM_GUARDED_BY(mu_);
  int64_t cached_bytes_ CHAM_GUARDED_BY(mu_) = 0;  // blocks of meta_ `latest`
  WriteBehindStats stats_ CHAM_GUARDED_BY(mu_);
  uint64_t lru_tick_ CHAM_GUARDED_BY(mu_) = 0;
  bool paused_ CHAM_GUARDED_BY(mu_) = false;
  bool stop_ CHAM_GUARDED_BY(mu_) = false;

  std::thread io_thread_;
};

}  // namespace cham::serve
