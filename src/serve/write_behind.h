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
// (cache evicted, process restart) does the manager fall back to disk.
//
// FLUSH FAILURE (disk full): the error is counted, the on-disk state keeps
// its previous (intact, older) blob, and the in-memory cache keeps serving
// the newest state — sessions stay correct; only crash-durability of the
// latest delta is lost until a later flush succeeds.
//
// SNAPSHOT CACHE: the last-flushed `latest` blob of each session, bounded
// by snapshot_cache_bytes (LRU). A session whose newest flushed state is a
// delta, or whose last flush failed, keeps `latest` pinned; when the cache
// is over budget, the LRU pinned session is compacted to disk on the spot
// (write a full blob, drop the pin). Cache pressure thus turns into
// compaction, never into lost state, and a session pushed out of the
// cache restores from a full blob without replay. The budget is enforced
// after every flush, and wb_cache_bytes_high_water is recorded just before
// that trim, so the peak is at most snapshot_cache_bytes plus the one blob
// that just landed. The cache stays above budget after a trim only when a
// compaction write failed (counted in wb_flush_errors).
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

struct WriteBehindConfig {
  int64_t snapshot_cache_bytes = int64_t{128} << 20;
};

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

  WriteBehind(SessionStore& store, WriteBehindConfig cfg);
  ~WriteBehind();  // drains the queue, then stops the IO thread

  WriteBehind(const WriteBehind&) = delete;
  WriteBehind& operator=(const WriteBehind&) = delete;

  // Hands a snapshot to the pipeline. Never blocks on disk. Snapshots for
  // a session already queued coalesce: blobs replace, op logs concatenate.
  void submit(Snapshot snap) CHAM_EXCLUDES(io_mu_, mu_);

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

  // Writes a full blob for every session whose last flush failed (its
  // newest state lives only in the cache). SessionManager::flush() calls
  // it after drain().
  void retry_failed_flushes() CHAM_EXCLUDES(io_mu_, mu_);

  WriteBehindStats stats() const CHAM_EXCLUDES(mu_);
  // Bytes the snapshot cache holds right now (sum of cached `latest` blobs).
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
    // Last flushed blob in any form = the session's newest state. Pinned
    // in the cache while deltas_since_full > 0 or while a failed flush
    // left disk behind it (see file comment).
    std::shared_ptr<const core::ByteBuf> latest;
    bool durable = false;  // disk holds exactly `latest` (possibly as delta)
    // Ops spanning base -> latest (for op-log encoding of the next delta).
    std::vector<data::ServeOp> ops_since_base;
    bool ops_valid = true;
    int64_t deltas_since_full = 0;
    uint64_t lru_tick = 0;
  };

  void io_loop() CHAM_EXCLUDES(io_mu_, mu_);
  // Encodes + writes one snapshot. Takes mu_ internally; never holds it
  // across the encode. `mu_` must NOT be held by the caller.
  void flush_one(Snapshot snap) CHAM_EXCLUDES(io_mu_, mu_);
  // Under mu_: recompute cached bytes and evict/compact down to budget.
  void enforce_cache_budget_locked() CHAM_REQUIRES(mu_);
  // Under mu_: writes m.latest as the session's full blob and makes it the
  // delta base. False, counted in wb_flush_errors, if the write failed.
  bool land_full_locked(uint64_t id, Meta& m) CHAM_REQUIRES(mu_);
  int64_t cached_bytes_locked() const CHAM_REQUIRES(mu_);

  SessionStore& store_;
  WriteBehindConfig cfg_;

  // Lock order: io_mu_ before mu_ (flush_one holds io_mu_ across the encode
  // and takes mu_ twice inside; retry_failed_flushes takes both). Never the
  // reverse.
  mutable util::Mutex mu_;
  util::CondVar cv_;       // IO thread: work available / stop
  util::CondVar cv_idle_;  // drain(): queue empty, nothing mid-flush
  std::deque<uint64_t> queue_ CHAM_GUARDED_BY(mu_);  // flush order
  std::unordered_map<uint64_t, Snapshot> pending_
      CHAM_GUARDED_BY(mu_);  // newest unflushed state
  std::unordered_map<uint64_t, std::shared_ptr<const core::ByteBuf>>
      inflight_ CHAM_GUARDED_BY(mu_);  // blob currently being written
  std::unordered_map<uint64_t, Meta> meta_ CHAM_GUARDED_BY(mu_);
  WriteBehindStats stats_ CHAM_GUARDED_BY(mu_);
  uint64_t lru_tick_ CHAM_GUARDED_BY(mu_) = 0;
  bool paused_ CHAM_GUARDED_BY(mu_) = false;
  bool stop_ CHAM_GUARDED_BY(mu_) = false;

  // Serialises disk writes: flush_one (IO thread) against
  // retry_failed_flushes.
  util::Mutex io_mu_ CHAM_ACQUIRED_BEFORE(mu_);
  std::thread io_thread_;
};

}  // namespace cham::serve
