#include "serve/write_behind.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "tensor/workspace.h"
#include "util/check.h"

namespace cham::serve {
namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Compaction policy: a delta larger than this fraction of the full blob,
// or one that would follow this many consecutive deltas, is written as a
// full blob instead.
constexpr double kCompactRatio = 0.5;
constexpr int64_t kCompactEvery = 8;

// What a cached blob costs: the pool block its buffer occupies, not its
// length.
int64_t blob_bytes(const std::shared_ptr<const core::ByteBuf>& b) {
  return b ? static_cast<int64_t>(ws::pool_block_bytes(b->capacity())) : 0;
}

}  // namespace

WriteBehind::WriteBehind(SessionStore& store, int64_t snapshot_cache_bytes)
    : store_(store), cache_budget_(snapshot_cache_bytes) {
  io_thread_ = std::thread([this] { io_loop(); });
}

WriteBehind::~WriteBehind() {
  {
    util::MutexLock lock(mu_);
    // cham-lint: begin(wb_mu)
    stop_ = true;
    // cham-lint: end(wb_mu)
  }
  cv_.notify_all();
  if (io_thread_.joinable()) io_thread_.join();  // flushes the queue first
}

void WriteBehind::submit(Snapshot snap) {
  CHAM_CHECK(snap.blob != nullptr, "WriteBehind: snapshot without a blob");
  {
    util::MutexLock lock(mu_);
    // cham-lint: begin(wb_mu)
    auto it = pending_.find(snap.session_id);
    if (it != pending_.end()) {
      // Coalesce: only the newest state matters; the op logs concatenate
      // (the queued snapshot's ops span previous-flushed -> its blob, the
      // new ops span its blob -> the new blob).
      Snapshot& p = it->second;
      p.blob = std::move(snap.blob);
      p.ops_valid = p.ops_valid && snap.ops_valid;
      if (p.ops_valid) {
        p.ops.insert(p.ops.end(),
                     std::make_move_iterator(snap.ops.begin()),
                     std::make_move_iterator(snap.ops.end()));
      } else {
        p.ops.clear();
      }
    } else {
      enqueue_locked(std::move(snap));
    }
    // cham-lint: end(wb_mu)
  }
  cv_.notify_one();
}

std::shared_ptr<const core::ByteBuf> WriteBehind::newest_blob(
    uint64_t session_id, bool* pending) {
  util::MutexLock lock(mu_);
  // cham-lint: begin(wb_mu)
  if (pending) *pending = false;
  if (auto it = pending_.find(session_id); it != pending_.end()) {
    if (pending) *pending = true;
    return it->second.blob;
  }
  if (auto it = inflight_.find(session_id); it != inflight_.end()) {
    if (pending) *pending = true;
    return it->second;
  }
  if (auto it = meta_.find(session_id);
      it != meta_.end() && it->second.latest) {
    it->second.lru_tick = ++lru_tick_;
    return it->second.latest;
  }
  return nullptr;
  // cham-lint: end(wb_mu)
}

void WriteBehind::drain() {
  util::MutexLock lock(mu_);
  // cham-lint: begin(wb_mu)
  cv_idle_.wait(lock, [this]() CHAM_REQUIRES(mu_) {
    return queue_.empty() && inflight_.empty();
  });
  // cham-lint: end(wb_mu)
}

void WriteBehind::io_loop() {
  for (;;) {
    Snapshot snap;
    {
      util::MutexLock lock(mu_);
      // cham-lint: begin(wb_mu)
      // Pause is a test hook and yields to stop: shutdown always drains.
      cv_.wait(lock, [this]() CHAM_REQUIRES(mu_) {
        return stop_ || (!queue_.empty() && !paused_);
      });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      const uint64_t id = queue_.front();
      queue_.pop_front();
      auto it = pending_.find(id);
      CHAM_CHECK(it != pending_.end(),
                 "WriteBehind: queued session has no pending snapshot");
      snap = std::move(it->second);
      pending_.erase(it);
      // Keep the blob visible to restores while it is being written.
      inflight_[id] = snap.blob;
      // cham-lint: end(wb_mu)
    }
    flush_one(std::move(snap));
    {
      util::MutexLock lock(mu_);
      // cham-lint: begin(wb_mu)
      if (queue_.empty() && inflight_.empty()) cv_idle_.notify_all();
      // cham-lint: end(wb_mu)
    }
  }
}

void WriteBehind::flush_one(Snapshot snap) {
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t id = snap.session_id;
  const core::ByteBuf& blob = *snap.blob;

  // Copy what the encoder needs out of the session's meta.
  uint64_t base_hash = 0, base_len = 0;
  bool has_base = false;
  int64_t deltas = 0;
  std::vector<data::ServeOp> ops;
  bool ops_ok = false;
  {
    util::MutexLock lock(mu_);
    // cham-lint: begin(wb_mu)
    if (auto it = meta_.find(id); it != meta_.end()) {
      const Meta& m = it->second;
      base_hash = m.base_hash;
      base_len = m.base_len;
      has_base = m.has_base;
      deltas = m.deltas_since_full;
      ops_ok = m.ops_valid && snap.ops_valid;
      if (ops_ok) {
        ops = m.ops_since_base;  // spans base -> last flushed
        ops.insert(ops.end(), std::make_move_iterator(snap.ops.begin()),
                   std::make_move_iterator(snap.ops.end()));
      }
    } else {
      ops_ok = snap.ops_valid;
      if (ops_ok) ops = std::move(snap.ops);
    }
    // cham-lint: end(wb_mu)
  }

  // An op-log delta when one is allowed and beats the compaction ratio,
  // else a full blob. Either way the blob's hash is needed (the delta's
  // target, or the next delta base), so it is computed once, outside mu_.
  const uint64_t next_hash = core::blob_hash(blob.data(), blob.size());
  core::ByteBuf frame;  // empty: write a full blob
  if (has_base && deltas < kCompactEvery && ops_ok &&
      static_cast<int64_t>(ops.size()) <= kMaxReplayOps) {
    core::DeltaHeader h;
    h.base_hash = base_hash;
    h.base_len = base_len;
    h.next_hash = next_hash;
    h.next_len = blob.size();
    frame = core::encode_op_log(h, ops);
    if (frame.size() >
        static_cast<std::size_t>(kCompactRatio *
                                 static_cast<double>(blob.size()))) {
      frame.clear();
    }
  }
  const bool full = frame.empty();

  const bool disk_ok =
      full ? store_.put_full(id, blob.data(), blob.size())
           : store_.put_delta(id, frame.data(), frame.size());

  const double flush_ms = ms_since(t0);
  {
    util::MutexLock lock(mu_);
    // cham-lint: begin(wb_mu)
    Meta& m = meta_[id];
    m.lru_tick = ++lru_tick_;
    m.durable = disk_ok;
    if (disk_ok) {
      ++stats_.wb_flushes;
      stats_.flush_ms_total += flush_ms;
      stats_.flush_ms_max = std::max(stats_.flush_ms_max, flush_ms);
      if (full) {
        m.base_hash = next_hash;
        m.base_len = blob.size();
        m.has_base = true;
        m.deltas_since_full = 0;
        m.ops_since_base.clear();
        m.ops_valid = true;
        ++stats_.wb_full_saves;
        stats_.wb_full_bytes += static_cast<int64_t>(blob.size());
      } else {
        ++m.deltas_since_full;
        m.ops_valid = true;
        m.ops_since_base = std::move(ops);
        ++stats_.wb_oplog_saves;
        stats_.wb_delta_bytes += static_cast<int64_t>(frame.size());
      }
    } else {
      // Disk kept its previous (intact) state; the cache keeps serving
      // this newest blob. Ops still span the on-disk base -> this blob, so
      // a later flush can still encode an op-log delta.
      ++stats_.wb_flush_errors;
      m.ops_valid = ops_ok;
      m.ops_since_base =
          ops_ok ? std::move(ops) : std::vector<data::ServeOp>{};
    }
    // Cache only what disk cannot serve without replay, and only while no
    // newer snapshot of the session is queued.
    std::shared_ptr<const core::ByteBuf> keep;
    if (!(disk_ok && full) && pending_.count(id) == 0) {
      keep = std::move(snap.blob);
    }
    cached_bytes_ += blob_bytes(keep) - blob_bytes(m.latest);
    m.latest = std::move(keep);
    inflight_.erase(id);
    stats_.wb_cache_bytes_high_water =
        std::max(stats_.wb_cache_bytes_high_water, cached_bytes_);
    enforce_cache_budget_locked();
    // cham-lint: end(wb_mu)
  }
}

int64_t WriteBehind::cached_bytes() const {
  util::MutexLock lock(mu_);
  // cham-lint: begin(wb_mu)
  return cached_bytes_;
  // cham-lint: end(wb_mu)
}

void WriteBehind::retry_failed_flushes() {
  {
    util::MutexLock lock(mu_);
    // cham-lint: begin(wb_mu)
    for (auto& [id, m] : meta_) {
      if (!m.durable && m.latest) {
        enqueue_locked(Snapshot{id, m.latest, {}, /*ops_valid=*/false});
      }
    }
    // cham-lint: end(wb_mu)
  }
  cv_.notify_one();
  drain();
}

WriteBehindStats WriteBehind::stats() const {
  util::MutexLock lock(mu_);
  // cham-lint: begin(wb_mu)
  return stats_;
  // cham-lint: end(wb_mu)
}

void WriteBehind::pause_for_test() {
  util::MutexLock lock(mu_);
  // cham-lint: begin(wb_mu)
  paused_ = true;
  // cham-lint: end(wb_mu)
}

void WriteBehind::resume_for_test() {
  {
    util::MutexLock lock(mu_);
    // cham-lint: begin(wb_mu)
    paused_ = false;
    // cham-lint: end(wb_mu)
  }
  cv_.notify_all();
}

// The helpers below run with mu_ held (CHAM_REQUIRES).
// cham-lint: begin(wb_mu)
void WriteBehind::enqueue_locked(Snapshot snap) {
  // The queued snapshot supersedes the session's cached blob (restores
  // look in pending_ first), so the cache lets go of it.
  if (auto it = meta_.find(snap.session_id); it != meta_.end()) {
    cached_bytes_ -= blob_bytes(it->second.latest);
    it->second.latest.reset();
  }
  queue_.push_back(snap.session_id);
  pending_.emplace(snap.session_id, std::move(snap));
  stats_.wb_queue_depth_high_water = std::max(
      stats_.wb_queue_depth_high_water, static_cast<int64_t>(queue_.size()));
}

void WriteBehind::enforce_cache_budget_locked() {
  // Every cached blob is pinned: a durable one is stored as base + delta,
  // so pressure compacts it (its next disk restore replays nothing); one
  // whose flush failed stays until retry_failed_flushes. Each round queues
  // the least recent durable entry by (lru_tick, id), found by a scan:
  // nothing is allocated or sorted under mu_.
  while (cached_bytes_ > cache_budget_) {
    const std::pair<const uint64_t, Meta>* lru = nullptr;
    for (const auto& e : meta_) {
      const Meta& m = e.second;
      if (!m.latest || !m.durable) continue;
      if (lru == nullptr ||
          std::pair(m.lru_tick, e.first) <
              std::pair(lru->second.lru_tick, lru->first)) {
        lru = &e;
      }
    }
    if (lru == nullptr) return;
    // ops_valid = false: the encoder writes it full.
    enqueue_locked(Snapshot{lru->first, lru->second.latest, {},
                            /*ops_valid=*/false});
    ++stats_.wb_compactions;
  }
}
// cham-lint: end(wb_mu)

}  // namespace cham::serve
