// Disk-backed store of evicted session state.
//
// The serving runtime keeps a bounded pool of resident learners; everything
// else lives here as one blob per session (the full
// ChameleonLearner::save_state payload: head weights, ST/LT contents,
// preference statistics, staged LT burst, RNG state, step counter, traffic
// ledger). In the paper's memory-hierarchy terms the resident pool is the
// on-chip tier and this store the off-chip tier: capacity is cheap, access
// costs a serialisation round-trip, and the round-trip must be lossless —
// a restored session continues bit-identically (tests/test_serve.cpp gates
// this).
//
// On-disk layout per session:
//   session_<id>.chk     the last FULL blob (CHS2)
//   session_<id>.delta   optional CHS3 op-log delta against that blob —
//                        at most one; each delta write replaces the
//                        previous, and a full write removes it. The pair
//                        (.chk, .delta) is the session's newest state.
//
// Durability: every write goes through write+fsync to a temp name, then
// rename, then a best-effort directory fsync. Write errors (disk full,
// short write) are detected BEFORE the rename, so a failed save never
// replaces a valid blob with a truncated one. Crash-consistency of the
// pair: a full write renames .chk first and unlinks .delta second, so a
// crash in between leaves a .delta whose base hash no longer matches —
// load() detects that and serves the (newer) base alone.
//
// One reader: load() is the only decoder of a stored pair. It replays a
// live op-log delta through the caller's learner and verifies the result
// against the frame's target hash, so a store left by a running server
// (SessionManager::flush included) restores through any load() call.
//
// Thread-safety: all methods are serialised by an internal mutex, held for
// file I/O only. load() reads both files under it and restores, replays
// and re-serialises with it released (cham_lint's learner-in-store-mu
// rule), so two shards restoring from disk never queue behind one
// another's replay.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/chameleon.h"
#include "core/checkpoint.h"
#include "util/sync.h"

namespace cham::serve {

class SessionStore {
 public:
  // Creates `dir` (and parents) if missing. Existing session blobs in the
  // directory are visible immediately (a restarted server re-adopts them).
  explicit SessionStore(std::string dir);

  // --- Raw blob interface (the write-behind pipeline's entry points). ---

  // Durably installs `data` as the session's full blob and removes any
  // delta. False on any I/O error, in which case the previous blob (and
  // delta) remain intact and readable.
  bool put_full(uint64_t session_id, const char* data, std::size_t n)
      CHAM_EXCLUDES(mu_);

  // Durably installs a CHS3 delta frame next to the existing full blob
  // (which must exist). Replaces any previous delta.
  bool put_delta(uint64_t session_id, const char* data, std::size_t n)
      CHAM_EXCLUDES(mu_);

  // Raw bytes of the full blob. False if absent or unreadable.
  bool get_blob(uint64_t session_id, core::ByteBuf& out) const
      CHAM_EXCLUDES(mu_);

  // What load() applied on top of the full blob.
  struct LoadInfo {
    int64_t replayed_ops = 0;    // op-log entries, skipped predicts included
    bool applied_delta = false;  // a live op-log delta was replayed
  };

  // Restores the session's newest state into a learner constructed with
  // the same config and environment: the full blob, then the observes of a
  // live op-log delta, re-serialised and checked against the frame's
  // target length and hash. A stale delta (base hash mismatch — see the
  // crash-consistency note above) is ignored and the base served alone.
  // Returns false if the blob is absent or malformed, if a delta is
  // present but does not parse as an op log (retired kind 0 included), or
  // if the replayed state misses the target; the learner is then in an
  // unspecified state. `info`, when given, is filled on success.
  bool load(uint64_t session_id, core::ChameleonLearner& learner,
            LoadInfo* info = nullptr) CHAM_EXCLUDES(mu_);

  bool contains(uint64_t session_id) const CHAM_EXCLUDES(mu_);
  void clear() CHAM_EXCLUDES(mu_);  // removes every session blob and delta

  const std::string& dir() const { return dir_; }
  int64_t bytes_written() const CHAM_EXCLUDES(mu_);

 private:
  std::string path_for(uint64_t session_id) const;
  std::string delta_path_for(uint64_t session_id) const;
  // write+fsync to path+".tmp", rename over path, fsync the directory.
  // Filesystem state is guarded state too: mu_ serialises every read and
  // write of the blob/delta pair, so these carry CHAM_REQUIRES(mu_) even
  // though they touch no data member directly.
  bool write_atomic(const std::string& path, const char* data,
                    std::size_t n) CHAM_REQUIRES(mu_);
  bool read_file(const std::string& path, core::ByteBuf& out) const
      CHAM_REQUIRES(mu_);

  std::string dir_;
  // Guards the byte counter AND the on-disk blob/delta pair: the two-file
  // update protocols (rename-then-unlink) are atomic only because every
  // accessor serialises here.
  mutable util::Mutex mu_;
  int64_t bytes_written_ CHAM_GUARDED_BY(mu_) = 0;
};

}  // namespace cham::serve
