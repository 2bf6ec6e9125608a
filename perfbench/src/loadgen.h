// Single-threaded wire load generator over non-blocking Unix sockets.
//
// One poll loop drives every connection: it releases requests when they
// are due (open loop) or when a connection has room in its window (closed
// loop), writes frames, and reads replies as they arrive — so a slow server
// never slows the arrival schedule, and queueing shows up as latency.
//
// Per-session order is preserved across backpressure (a retried observe
// must not overtake or be overtaken within its session's training stream):
//   * an observe is sent only when none of its session's earlier requests
//     is unanswered;
//   * a predict is sent only when none of its session's observes is
//     unacknowledged (predicts of one session may pipeline: they do not
//     change learner state, so their relative order is immaterial);
//   * a backpressured request goes back to the head of its session's queue
//     and holds every later request of that session until it is re-sent
//     after the server's retry hint.
// Each session is pinned to one connection (session % connections).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "workload.h"

namespace perfbench {

// A phase gives up on requests still unanswered this long after it stops
// releasing new ones; they count as failed.
constexpr double kDrainTimeoutS = 60;

// What happened to one released request.
struct Record {
  double due_s = -1;      // phase-relative due time (closed loop: release)
  double ready_s = 0;     // when session order last allowed it to be sent
  double first_send_s = -1;
  double reply_s = -1;    // final reply (OK or terminal error)
  int32_t attempts = 0;   // sends, including retries after backpressure
  bool ok = false;
  bool released = false;
  std::vector<int64_t> preds;  // predict result
};

struct PhaseOptions {
  bool open_loop = true;
  int64_t window = 8;           // closed loop: in-flight per connection
  double release_seconds = 0;   // closed loop: stop releasing after this
  // Cap on the wait before re-sending a backpressured request (default: the
  // server's retry hint). The saturation phase retries within a millisecond
  // so a full queue refills as soon as a slot frees.
  double max_retry_s = 1e9;
  // Called on the generator thread about every tick_s while releasing,
  // with the phase time.
  double tick_s = 0;
  std::function<void(double)> on_tick;
};

struct PhaseResult {
  std::vector<Record> records;  // one per op (released or not)
  int64_t released = 0;
  int64_t sent = 0;             // frames sent, retries included
  int64_t ok = 0;
  int64_t rejected = 0;         // backpressure replies
  int64_t failed = 0;           // released but never answered OK
  double wall_s = 0;            // phase start to last reply
};

class WireLoad {
 public:
  WireLoad(const std::string& unix_path, int connections);
  ~WireLoad();
  WireLoad(const WireLoad&) = delete;
  WireLoad& operator=(const WireLoad&) = delete;

  // Runs one phase over `ops` (every op is released in list order within
  // its connection) and returns when every released request is answered,
  // or kDrainTimeoutS after releasing stopped.
  PhaseResult run(const std::vector<Op>& ops, const Inputs& in,
                  const PhaseOptions& opt);

  // Blocking STATS round trips on connection 0 (no learner work): the
  // wire's per-request overhead. Returns microseconds per round trip.
  std::vector<double> stats_round_trips(int count);

 private:
  struct Conn;
  std::vector<std::unique_ptr<Conn>> conns_;
  uint64_t next_request_id_ = 1;
};

}  // namespace perfbench
