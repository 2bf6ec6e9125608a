// Cross-session predict coalescing for the serving runtime.
//
// Predict requests are state-pure (core::HeadLearner::predict_batch) and
// every head layer treats batch rows independently in eval mode, so queued
// predicts can be pulled ahead of OTHER sessions' work and merged into
// larger gathered evaluations without changing any per-session result bit.
// The BatchPlanner encodes exactly when that reordering is legal and in
// what order the merged work runs:
//
//   Eligibility   A queued predict may join a plan iff no EARLIER request
//                 of the SAME session is still ahead of it in the queue
//                 (per-session FIFO / read-your-writes is preserved; only
//                 cross-session order — which has no contract — changes).
//                 Equivalently: each session contributes its leading run of
//                 predicts, nothing behind an observe.
//
//   Determinism   The eligible set is a per-session property, so it does
//                 not depend on how sessions' submissions interleaved.
//                 finalize() stable-sorts items by session_id (same-session
//                 items keep submission order), making the plan — order,
//                 grouping, and therefore every downstream bit — a pure
//                 function of {per-session request sequences}, not of
//                 arrival interleaving or shard count.
//
//   Bounding      max_batch bounds how many requests one eval pass merges
//                 (the gather buffer stays small). It affects no result,
//                 only latency/throughput shape.
//
// Lifecycle (see DESIGN.md "Batch-plan lifecycle"): take_eligible() runs
// under the owning shard's mutex and only moves queue entries (no blocking
// calls, no allocation beyond vector moves — cham_lint enforces this over
// the begin/end(batch_plan) markers); finalize() and execution run with no
// shard lock held.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "data/stream.h"

namespace cham::serve {

// One queued serving request: the shard queue element, shared by the
// SessionManager queues and the planner.
struct Request {
  enum class Kind { kObserve, kPredict };
  Kind kind = Kind::kObserve;
  uint64_t session_id = 0;
  data::Batch batch;                 // kObserve payload
  std::vector<data::ImageKey> keys;  // kPredict payload (owned: a queued
                                     // request must not dangle if the
                                     // submitting frame unwinds early)
  std::shared_ptr<std::promise<std::vector<int64_t>>> reply;  // kPredict
  // Optional completion hook (kPredict): the dispatching thread calls it
  // right after resolving `reply` (value or exception), with no serve lock
  // held and before the request counts as done for drain(). Must not block.
  std::function<void()> done;
};

struct BatchPlannerConfig {
  // Max predict requests merged into one stacked eval pass. 1 disables
  // cross-request merging (every predict evaluates alone — the reference
  // ServeSuite.BatchedVsUnbatchedBitExactOnMixedInterleave compares
  // against).
  int64_t max_batch = 8;
};

// A contiguous run of plan items belonging to one session.
struct PlanGroup {
  uint64_t session_id = 0;
  std::size_t begin = 0;  // [begin, end) into BatchPlan::items
  std::size_t end = 0;
  int64_t rows = 0;  // total keys across the run (stacked gather rows)
};

// An executable plan: eligible predicts in deterministic order, grouped by
// session. Execution contract: groups run in items order (ascending
// session_id); within a group the executor merges requests into eval
// windows of at most max_batch requests.
struct BatchPlan {
  std::vector<Request> items;
  std::vector<PlanGroup> groups;

  bool empty() const { return items.empty(); }
  int64_t size() const { return static_cast<int64_t>(items.size()); }
};

class BatchPlanner {
 public:
  explicit BatchPlanner(const BatchPlannerConfig& cfg) : cfg_(cfg) {}

  const BatchPlannerConfig& config() const { return cfg_; }

  // Phase 1 — extraction. Removes every eligible predict from `queue`
  // (appending to `out` in queue order) and leaves everything else in
  // place. The caller MUST hold the mutex guarding `queue`; the body is
  // straight pointer/vector moves so the critical section stays flat.
  void take_eligible(std::deque<Request>& queue,
                     std::vector<Request>& out) const;

  // Phase 2 — ordering. Stable-sorts the extracted items by session_id and
  // builds the per-session groups. Runs with no locks held.
  BatchPlan finalize(std::vector<Request> items) const;

 private:
  BatchPlannerConfig cfg_;
};

}  // namespace cham::serve
