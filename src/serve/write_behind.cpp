#include "serve/write_behind.h"

#include <algorithm>
#include <chrono>
#include <utility>

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

int64_t blob_bytes(const std::shared_ptr<const core::ByteBuf>& b) {
  return b ? static_cast<int64_t>(b->size()) : 0;
}

}  // namespace

WriteBehind::WriteBehind(SessionStore& store, WriteBehindConfig cfg)
    : store_(store), cfg_(cfg) {
  io_thread_ = std::thread([this] { io_loop(); });
}

WriteBehind::~WriteBehind() {
  {
    util::MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (io_thread_.joinable()) io_thread_.join();  // flushes the queue first
}

void WriteBehind::submit(Snapshot snap) {
  CHAM_CHECK(snap.blob != nullptr, "WriteBehind: snapshot without a blob");
  {
    util::MutexLock lock(mu_);
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
      queue_.push_back(snap.session_id);
      pending_.emplace(snap.session_id, std::move(snap));
      stats_.queue_depth_high_water =
          std::max(stats_.queue_depth_high_water,
                   static_cast<int64_t>(queue_.size()));
    }
  }
  cv_.notify_one();
}

std::shared_ptr<const core::ByteBuf> WriteBehind::newest_blob(
    uint64_t session_id, bool* pending) {
  util::MutexLock lock(mu_);
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
}

void WriteBehind::drain() {
  util::MutexLock lock(mu_);
  cv_idle_.wait(lock, [this]() CHAM_REQUIRES(mu_) {
    return queue_.empty() && inflight_.empty();
  });
}

void WriteBehind::io_loop() {
  for (;;) {
    Snapshot snap;
    {
      util::MutexLock lock(mu_);
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
    }
    flush_one(std::move(snap));
    {
      util::MutexLock lock(mu_);
      if (queue_.empty() && inflight_.empty()) cv_idle_.notify_all();
    }
  }
}

void WriteBehind::flush_one(Snapshot snap) {
  // Excludes retry_failed_flushes' writes; the IO thread is the only
  // flusher, so this is uncontended otherwise.
  util::MutexLock io_lock(io_mu_);
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
    Meta& m = meta_[id];
    m.lru_tick = ++lru_tick_;
    m.latest = snap.blob;
    m.durable = disk_ok;
    if (disk_ok) {
      ++stats_.flushes;
      stats_.flush_ms_total += flush_ms;
      stats_.flush_ms_max = std::max(stats_.flush_ms_max, flush_ms);
      if (full) {
        m.base_hash = next_hash;
        m.base_len = blob.size();
        m.has_base = true;
        m.deltas_since_full = 0;
        m.ops_since_base.clear();
        m.ops_valid = true;
        ++stats_.full_saves;
        stats_.full_bytes += static_cast<int64_t>(blob.size());
      } else {
        ++m.deltas_since_full;
        m.ops_valid = true;
        m.ops_since_base = std::move(ops);
        ++stats_.oplog_saves;
        stats_.delta_bytes += static_cast<int64_t>(frame.size());
      }
    } else {
      // Disk kept its previous (intact) state; the cache keeps serving
      // this newest blob. Ops still span the on-disk base -> this blob, so
      // a later flush can still encode an op-log delta.
      ++stats_.flush_errors;
      m.ops_valid = ops_ok;
      m.ops_since_base =
          ops_ok ? std::move(ops) : std::vector<data::ServeOp>{};
    }
    inflight_.erase(id);
    enforce_cache_budget_locked();
  }
}

int64_t WriteBehind::cached_bytes_locked() const {
  int64_t bytes = 0;
  for (const auto& [id, m] : meta_) {
    (void)id;
    bytes += blob_bytes(m.latest);
  }
  return bytes;
}

int64_t WriteBehind::cached_bytes() const {
  util::MutexLock lock(mu_);
  return cached_bytes_locked();
}

void WriteBehind::enforce_cache_budget_locked() {
  int64_t bytes = cached_bytes_locked();
  stats_.cache_bytes_high_water =
      std::max(stats_.cache_bytes_high_water, bytes);
  if (bytes <= cfg_.snapshot_cache_bytes) return;

  std::vector<std::pair<uint64_t, uint64_t>> order;  // (lru_tick, id)
  order.reserve(meta_.size());
  for (const auto& [id, m] : meta_) {
    if (m.latest) order.emplace_back(m.lru_tick, id);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [tick, id] : order) {
    (void)tick;
    if (bytes <= cfg_.snapshot_cache_bytes) return;
    Meta& m = meta_[id];
    const bool pinned = !m.durable || m.deltas_since_full > 0;
    // A pinned blob is missing from disk (a failed flush) or stored there
    // as base + delta. Turn cache pressure into compaction: land it as a
    // full blob, then the pin drops, and the session's next restore reads
    // that blob and replays nothing.
    if (pinned) {
      if (!land_full_locked(id, m)) continue;  // cannot safely drop
      ++stats_.compactions;
    }
    bytes -= blob_bytes(m.latest);
    m.latest.reset();
  }
}

bool WriteBehind::land_full_locked(uint64_t id, Meta& m) {
  if (!store_.put_full(id, m.latest->data(), m.latest->size())) {
    ++stats_.flush_errors;
    return false;
  }
  ++stats_.flushes;
  ++stats_.full_saves;
  stats_.full_bytes += blob_bytes(m.latest);
  m.base_hash = core::blob_hash(m.latest->data(), m.latest->size());
  m.base_len = m.latest->size();
  m.has_base = true;
  m.deltas_since_full = 0;
  m.ops_since_base.clear();
  m.ops_valid = true;
  m.durable = true;
  return true;
}

void WriteBehind::retry_failed_flushes() {
  util::MutexLock io_lock(io_mu_);
  util::MutexLock lock(mu_);
  for (auto& [id, m] : meta_) {
    if (m.durable) continue;
    CHAM_DCHECK(m.latest != nullptr,
                "WriteBehind: a session that failed to flush lost its blob");
    land_full_locked(id, m);
  }
}

WriteBehindStats WriteBehind::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

void WriteBehind::pause_for_test() {
  util::MutexLock lock(mu_);
  paused_ = true;
}

void WriteBehind::resume_for_test() {
  {
    util::MutexLock lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

}  // namespace cham::serve
