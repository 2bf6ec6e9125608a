// Serving-runtime counters, exported alongside the per-learner OpStats.
//
// OpStats describes what one learner's algorithm costs per image; ServeStats
// describes what the multi-session runtime around the learners does —
// admission control, queue pressure, and the checkpoint traffic of moving
// session state across the residency hierarchy (resident learners are the
// paper's on-chip tier, the disk-backed SessionStore the off-chip tier; see
// DESIGN.md "Serving runtime").
//
// Deliberately plain (non-atomic) fields: every instance is either local to
// one thread (returned snapshots) or CHAM_GUARDED_BY a stats mutex
// (SessionManager::stats_, WriteBehind::stats_). Per the memory-ordering
// policy in util/sync.h, counters behind a mutex need no atomics at all —
// atomics here would only hide a missing-lock bug from TSan and the
// thread-safety analysis.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "util/json.h"

namespace cham::serve {

// Write-behind pipeline counters (serve/write_behind.h), kept by
// WriteBehind under its own mutex. ServeStats derives from this block, so
// the manager's snapshot takes them in one assignment and the names here
// are the ones ServeStats exports.
struct WriteBehindStats {
  int64_t wb_flushes = 0;       // snapshots written to disk (any form)
  int64_t wb_flush_errors = 0;  // disk writes that failed (state kept in RAM)
  int64_t wb_full_saves = 0;
  int64_t wb_oplog_saves = 0;
  int64_t wb_full_bytes = 0;    // disk bytes written as full blobs
  int64_t wb_delta_bytes = 0;   // disk bytes written as op-log deltas
  int64_t wb_compactions = 0;   // full writes queued by cache pressure
  int64_t wb_queue_depth_high_water = 0;
  int64_t wb_cache_bytes_high_water = 0;
  double flush_ms_total = 0;  // IO-thread time per flush (encode + write)
  double flush_ms_max = 0;
};

struct ServeStats : WriteBehindStats {
  // Admission control.
  int64_t submitted = 0;   // observe + predict submissions
  int64_t admissions = 0;  // accepted into a shard queue
  int64_t rejections = 0;  // bounded queue full: rejected with a retry hint

  // Dispatch.
  int64_t observes = 0;  // observe requests executed
  int64_t predicts = 0;  // predict requests executed
  int64_t dispatch_errors = 0;  // requests whose execution threw

  // Batched predict dispatch (serve/batch_planner.h).
  int64_t predict_batches = 0;   // merged eval windows executed (>= 2 reqs)
  int64_t batched_predicts = 0;  // predict requests served inside those
  int64_t batch_size_max = 0;    // largest window, in requests

  // Backpressure retry hints actually returned on rejection (ms). The avg
  // tracks how hard admission control is pushing callers back; scales with
  // observed queue drain rate, so it grows under sustained overload.
  double retry_hint_ms_sum = 0;
  double retry_hint_ms_max = 0;

  // Residency / eviction.
  int64_t creates = 0;    // sessions constructed fresh (first contact)
  int64_t evictions = 0;  // resident learner moved out of residency
  int64_t clean_evictions = 0;  // of those, dropped unwritten (never dirty)
  int64_t restores = 0;   // sessions rematerialised (any source)
  int64_t pending_restores = 0;  // served from an in-flight write-behind blob
  int64_t cache_restores = 0;    // served from the flushed-snapshot cache
  int64_t disk_restores = 0;     // served from the SessionStore
  int64_t replayed_ops = 0;      // ops replayed applying op-log deltas
  int64_t resident_high_water = 0;
  int64_t queue_depth_high_water = 0;  // max depth over all shards

  // Eviction latency split (wall milliseconds). save_ms is the in-memory
  // snapshot serialisation on the dispatch thread (unpinned, no locks
  // held); evict_lock_ms is the portion under sessions_mu_ — victim
  // selection and unlink only (perfbench's acquire.evict_lock_ms_max).
  double save_ms_total = 0;
  double save_ms_max = 0;
  double evict_lock_ms_total = 0;
  double evict_lock_ms_max = 0;
  double restore_ms_total = 0;
  double restore_ms_max = 0;

  // Always 0: chunk-diff deltas are retired. Kept only because the
  // perfbench traced run still reads it; goes when that reader does.
  int64_t wb_chunk_saves = 0;

  double save_ms_avg() const {
    return evictions > 0 ? save_ms_total / static_cast<double>(evictions)
                         : 0.0;
  }
  double restore_ms_avg() const {
    return restores > 0 ? restore_ms_total / static_cast<double>(restores)
                        : 0.0;
  }

  void record_save_ms(double ms) {
    save_ms_total += ms;
    save_ms_max = std::max(save_ms_max, ms);
  }
  void record_evict_lock_ms(double ms) {
    evict_lock_ms_total += ms;
    evict_lock_ms_max = std::max(evict_lock_ms_max, ms);
  }
  void record_restore_ms(double ms) {
    restore_ms_total += ms;
    restore_ms_max = std::max(restore_ms_max, ms);
  }
  void record_retry_hint_ms(double ms) {
    retry_hint_ms_sum += ms;
    retry_hint_ms_max = std::max(retry_hint_ms_max, ms);
  }
  double retry_hint_ms_avg() const {
    return rejections > 0 ? retry_hint_ms_sum / static_cast<double>(rejections)
                          : 0.0;
  }

  std::string to_json() const {
    util::JsonWriter j;
    j.field("submitted", submitted);
    j.field("admissions", admissions);
    j.field("rejections", rejections);
    j.field("observes", observes);
    j.field("predicts", predicts);
    j.field("dispatch_errors", dispatch_errors);
    j.field("predict_batches", predict_batches);
    j.field("batched_predicts", batched_predicts);
    j.field("batch_size_max", batch_size_max);
    j.field("retry_hint_ms_avg", retry_hint_ms_avg());
    j.field("retry_hint_ms_max", retry_hint_ms_max);
    j.field("creates", creates);
    j.field("evictions", evictions);
    j.field("clean_evictions", clean_evictions);
    j.field("restores", restores);
    j.field("pending_restores", pending_restores);
    j.field("cache_restores", cache_restores);
    j.field("disk_restores", disk_restores);
    j.field("replayed_ops", replayed_ops);
    j.field("resident_high_water", resident_high_water);
    j.field("queue_depth_high_water", queue_depth_high_water);
    j.field("save_ms_avg", save_ms_avg());
    j.field("save_ms_max", save_ms_max);
    j.field("evict_lock_ms_avg",
            evictions > 0 ? evict_lock_ms_total / static_cast<double>(evictions)
                          : 0.0);
    j.field("evict_lock_ms_max", evict_lock_ms_max);
    j.field("restore_ms_avg", restore_ms_avg());
    j.field("restore_ms_max", restore_ms_max);
    j.field("wb_flushes", wb_flushes);
    j.field("wb_flush_errors", wb_flush_errors);
    j.field("wb_full_saves", wb_full_saves);
    j.field("wb_oplog_saves", wb_oplog_saves);
    j.field("wb_full_bytes", wb_full_bytes);
    j.field("wb_delta_bytes", wb_delta_bytes);
    j.field("wb_compactions", wb_compactions);
    j.field("wb_queue_depth_high_water", wb_queue_depth_high_water);
    j.field("wb_cache_bytes_high_water", wb_cache_bytes_high_water);
    j.field("flush_ms_max", flush_ms_max);
    return j.str();
  }
};

}  // namespace cham::serve
