// Socket front-end for the serving runtime.
//
// NetServer turns the in-process SessionManager into a network service: it
// listens on a Unix-domain socket (or TCP behind the same abstraction),
// decodes protocol frames (net/protocol.h) on a poll-driven I/O thread, and
// stages each request into the EXISTING serving pipeline — submit_observe /
// submit_predict — so predicts arriving on different connections coalesce
// in the same BatchPlanner plans as in-process traffic. Nothing about the
// execution path is network-specific: the wire layer is a request source
// and a completion sink, and every result bit matches the same schedule
// submitted in-process (NetSuite.UnixSocketMatchesInProcessSubmission).
//
// Threading model: NetServer owns exactly one thread, whatever the
// connection count or scheduler mode.
//
//   I/O thread      Owns every socket. poll()-driven: accepts connections,
//                   reads and parses frames, submits decoded requests to
//                   the SessionManager (admission is non-blocking by
//                   design: a full shard queue REJECTS, and the typed
//                   BACKPRESSURE error relays retry_after_ms to the remote
//                   caller), writes queued reply frames. With a
//                   kDeterministic manager (no shard workers) it is also
//                   the dispatcher: after every poll pass that admitted
//                   work it calls mgr.drain(). FLUSH runs mgr.flush()
//                   inline. Never blocks on anything but poll() and those
//                   manager calls; all sockets are non-blocking.
//
//   Completions     Not a thread. Each admitted PREDICT carries a done hook
//                   (serve::Request::done) that the dispatching thread — a
//                   shard worker, or the I/O thread inside drain() — calls
//                   once the result is ready. The hook encodes the reply
//                   from the request's one future straight into the
//                   connection's outbox and wakes the I/O thread through
//                   the self-pipe. It never blocks: one push under the
//                   connection mutex.
//
// Delivery order: replies leave in completion order. A session's predicts
// complete in submission order (one dispatcher per session, FIFO queue),
// so same-session replies on a connection stay ordered, and FLUSH_OK
// trails every reply to the connection's earlier predicts: flush() drains
// first, and a shard counts a request done only after its hook returned.
// Across sessions, and for acks and errors, replies may overtake each
// other; clients match on request_id.
//
// Locks: each connection has one mutex guarding its outbox and in-flight
// count (critical sections are pointer moves only — the
// syscall-in-net-lock lint rule rejects any blocking syscall inside the
// begin/end(net_mu) marker regions); stats_mu_ guards the NetStats block.
// Neither is ever held across a syscall or a manager call.
//
// Backpressure, both directions:
//   inbound   admission rejections become BACKPRESSURE error frames
//             carrying the manager's EWMA retry_after_ms hint;
//   outbound  the I/O thread stops handling a connection's frames, and
//             stops reading its socket, while its outbox holds more than
//             half of outbox_limit_bytes (checked before every frame).
//             Completions never wait for space, so past that mark the
//             outbox grows only by replies already owed. It peaks at most
//             at
//
//               outbox_limit_bytes / 2 + one synchronous reply (ack,
//               error or STATS) + the replies to 2 x num_shards x
//               queue_capacity predicts
//
//             since each shard holds at most queue_capacity queued
//             requests plus one popped plan of at most queue_capacity in
//             flight. A client that stops reading replies stops being
//             served instead of growing the server without bound.
//
// Shutdown (stop(), the destructor, or a SHUTDOWN frame) is graceful:
// accept stops, every already-admitted request completes and its reply is
// flushed, then sockets close. Requests arriving DURING the drain get
// SHUTTING_DOWN errors. A connection that will not read its replies is
// force-closed after drain_timeout_ms. stop() returns only after the I/O
// thread has exited and a final mgr.drain() has returned, so no completion
// hook outlives the server.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/net_stats.h"
#include "net/protocol.h"
#include "serve/session_manager.h"
#include "util/sync.h"

namespace cham::net {

struct NetConfig {
  Transport transport = Transport::kUnix;
  std::string unix_path = "/tmp/cham_net.sock";
  uint16_t tcp_port = 0;
  // Reject any frame whose payload_len exceeds this (typed OVERSIZED error;
  // the payload is discarded from the stream, the connection survives).
  uint32_t max_payload_bytes = kDefaultMaxPayload;
  // Per-connection outbox bound, in bytes: the connection's frames stop
  // being read and handled while its outbox holds more than half of this
  // (see the outbound backpressure bound above).
  int64_t outbox_limit_bytes = int64_t{1} << 20;
  // Graceful-shutdown deadline: connections whose replies cannot be flushed
  // (client stopped reading) are force-closed after this many ms.
  int64_t drain_timeout_ms = 5000;
  // Test hook: when > 0, SO_SNDBUF is shrunk to this on accepted sockets so
  // reply writes go partial (exercises the short-write resume path).
  int sndbuf_bytes = 0;
};

class NetServer {
 public:
  // Binds, listens and starts the I/O thread. Throws util::CheckError
  // when the socket cannot be set up. The manager must outlive the server.
  NetServer(serve::SessionManager& mgr, NetConfig cfg);
  ~NetServer();  // stop()

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Graceful shutdown: stop accepting, drain every admitted request, flush
  // replies, close sockets, join the I/O thread, then mgr.drain() so every
  // completion hook has run. Idempotent; safe to call while a remote
  // SHUTDOWN frame is doing the same thing.
  void stop();

  // False once the server has shut down (stop() or a SHUTDOWN frame).
  bool running() const;

  // Resolved TCP port (ephemeral binds resolve at construction); 0 for
  // Unix-domain servers.
  uint16_t port() const { return port_; }
  const NetConfig& config() const { return cfg_; }

  NetStats stats() const CHAM_EXCLUDES(stats_mu_);

 private:
  struct Connection : std::enable_shared_from_this<Connection> {
    int fd = -1;

    // --- I/O-thread-owned (no lock): read/write cursors. ---
    std::vector<uint8_t> rdbuf;     // accumulated unparsed bytes
    std::size_t rd_off = 0;         // parse cursor into rdbuf
    std::size_t discard_left = 0;   // oversized payload being skipped
    WireBuf wire;                   // frame bytes mid-write to the socket
    std::size_t wire_off = 0;
    bool paused = false;            // frames unhandled (outbox pressure)
    bool want_close = false;        // close once outbox + wire are flushed

    // --- Shared with completion hooks (guarded by mu). ---
    util::Mutex mu;
    std::deque<WireBuf> outbox CHAM_GUARDED_BY(mu);
    int64_t outbox_bytes CHAM_GUARDED_BY(mu) = 0;
    // PREDICT requests whose reply is not queued yet (the graceful-drain
    // gate).
    int64_t inflight CHAM_GUARDED_BY(mu) = 0;
    bool closed CHAM_GUARDED_BY(mu) = false;  // fd is gone: drop replies
  };

  // One PREDICT awaiting its result. SessionManager::submit_predict stores
  // the future before it queues the request, so the shard mutex orders that
  // store before the done hook that reads it (deterministic mode runs both
  // on the I/O thread).
  struct PendingReply {
    std::shared_ptr<Connection> conn;
    uint64_t session_id = 0;
    uint64_t request_id = 0;
    std::future<std::vector<int64_t>> result;
  };

  void io_loop();

  void accept_ready();
  // Reads and parses; returns false when the connection must close.
  bool read_ready(Connection& c);
  // Handles every complete frame in c.rdbuf until the outbox pauses it.
  void parse_frames(Connection& c);
  void handle_frame(Connection& c, const FrameHeader& h,
                    const uint8_t* payload);
  // Submits the decoded PREDICT in keys_; a rejection is answered with
  // BACKPRESSURE at once.
  void submit_predict(Connection& c, const FrameHeader& h);
  // The admitted predict's done hook: queues its one reply frame.
  void reply_predict(PendingReply& p);
  // Moves outbox frames into the wire buffer and writes; false => close.
  bool flush_writes(Connection& c);
  // Queues a frame on c's outbox (dropped once the connection is closed);
  // `retire` also takes one request off c.inflight in the same critical
  // section. Never blocks: the I/O thread and completion hooks both call
  // it. Returns whether the frame was queued.
  bool enqueue(Connection& c, WireBuf frame, bool retire = false);
  // Bytes on c's outbox. Refreshes c.paused (above half the bound) and
  // counts each new pause as a write stall.
  int64_t check_outbox(Connection& c);
  void close_connection(Connection& c);
  void wake_io();
  std::string build_stats_json();

  serve::SessionManager& mgr_;
  NetConfig cfg_;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  int wake_rd_ = -1;  // self-pipe: anyone -> I/O thread
  int wake_wr_ = -1;

  // I/O-thread-owned decode scratch: capacity reused across frames so
  // steady-state decoding allocates nothing.
  data::Batch obs_batch_;
  std::vector<data::ImageKey> keys_;

  // Completion hooks hold their connection alive, so a closed connection
  // simply leaves this list.
  std::vector<std::shared_ptr<Connection>> conns_;  // I/O thread only
  bool admitted_ = false;  // I/O thread only: work submitted since drain()

  std::thread io_thread_;

  // stop() may be called concurrently with a remote SHUTDOWN frame and from
  // the destructor; joins happen exactly once under this mutex.
  util::Mutex lifecycle_mu_;
  bool joined_ CHAM_GUARDED_BY(lifecycle_mu_) = false;

  // Shutdown request flag. Relaxed: every consumer re-checks under a mutex
  // or via the self-pipe wakeup that follows the store (memory-ordering
  // policy case 1, util/sync.h).
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> io_exited_{false};

  mutable util::Mutex stats_mu_;
  NetStats stats_ CHAM_GUARDED_BY(stats_mu_);
};

}  // namespace cham::net
