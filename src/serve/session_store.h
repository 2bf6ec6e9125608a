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
// Thread-safety: all methods are serialised by an internal mutex. Blob I/O
// happens under the lock; callers on latency-sensitive paths (the
// write-behind IO thread, cold restores) already treat this as the slow
// tier.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

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

  // Raw bytes of the full blob / the delta frame. False if absent or
  // unreadable.
  bool get_blob(uint64_t session_id, core::ByteBuf& out) const
      CHAM_EXCLUDES(mu_);
  bool get_delta(uint64_t session_id, core::ByteBuf& out) const
      CHAM_EXCLUDES(mu_);
  bool has_delta(uint64_t session_id) const CHAM_EXCLUDES(mu_);

  // --- Learner convenience wrappers. ---

  // Serialises the learner's full state (in memory, then one durable
  // write). False on serialisation or I/O failure; never clobbers the
  // previous blob on failure.
  bool save(uint64_t session_id, const core::ChameleonLearner& learner)
      CHAM_EXCLUDES(mu_);

  // Restores the session's full blob into a learner constructed with the
  // same config and environment, ignoring a stale delta (base hash
  // mismatch — see the crash-consistency note above). Returns false if
  // absent or malformed, if a delta is present but does not parse as an op
  // log, and also if the newest state is behind a live op-log delta:
  // replaying ops needs the SessionManager (it owns dispatch), so plain
  // readers must only be pointed at compacted stores
  // (SessionManager::flush compacts).
  bool load(uint64_t session_id, core::ChameleonLearner& learner)
      CHAM_EXCLUDES(mu_);

  bool contains(uint64_t session_id) const CHAM_EXCLUDES(mu_);
  bool erase(uint64_t session_id) CHAM_EXCLUDES(mu_);
  void clear() CHAM_EXCLUDES(mu_);  // removes every session blob and delta

  std::vector<uint64_t> session_ids() const CHAM_EXCLUDES(mu_);
  int64_t size() const CHAM_EXCLUDES(mu_);  // stored session count

  const std::string& dir() const { return dir_; }
  int64_t bytes_written() const CHAM_EXCLUDES(mu_);
  int64_t bytes_read() const CHAM_EXCLUDES(mu_);

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
  // Guards the byte counters AND the on-disk blob/delta pair: the two-file
  // update protocols (rename-then-unlink) are atomic only because every
  // accessor serialises here.
  mutable util::Mutex mu_;
  int64_t bytes_written_ CHAM_GUARDED_BY(mu_) = 0;
  int64_t bytes_read_ CHAM_GUARDED_BY(mu_) = 0;
};

}  // namespace cham::serve
