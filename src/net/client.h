// Client side of the wire protocol (net/protocol.h).
//
// One NetClient owns one connection. Two usage styles over the same socket:
//
//   blocking     observe()/predict()/predict_batch()/flush()/stats_json()
//                send one request and wait for its reply;
//   pipelined    send_*() returns immediately with the request_id, await_reply()
//                collects replies — any number of requests may be in flight,
//                which is what lets the server's BatchPlanner merge one
//                client's predicts (and several clients') into shared eval
//                windows.
//
// Replies arrive in completion order (net/protocol.h: same-session predicts
// and FLUSH stay ordered; other sessions' results, acks and errors may
// overtake); await_reply(request_id) demultiplexes by id, stashing replies
// to other outstanding requests until their own await_reply() asks.
//
// Backpressure is surfaced, not hidden: a rejected request returns a Reply
// whose error carries the server's retry_after_ms hint. The *_admitted
// variants implement the standard loop (sleep the hinted interval, retry) —
// the remote equivalent of the submit-retry-drain loop in-process callers
// write. Observes MUST be sequenced through ack-before-next-send (which the
// blocking variants do) when order matters: a rejected-and-retried observe
// racing a pipelined later one would reorder the session's training stream.
//
// NOT thread-safe: one NetClient per thread (connections are cheap; the
// cross-connection batching lives server-side).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/protocol.h"

namespace cham::net {

// A decoded reply frame. Exactly one of the payload members is meaningful,
// chosen by `type`; ok() is false iff the server answered kError.
struct Reply {
  MsgType type = MsgType::kError;
  uint64_t session_id = 0;
  uint64_t request_id = 0;
  ErrorInfo error;                          // kError
  int64_t queue_depth = 0;                  // kObserveOk
  std::vector<int64_t> preds;               // kPredictResult
  std::vector<std::vector<int64_t>> pages;  // kPredictBatchResult
  std::string json;                         // kStatsResult

  bool ok() const { return type != MsgType::kError; }
  bool backpressured() const {
    return type == MsgType::kError && error.code == ErrCode::kBackpressure;
  }
};

struct ClientOptions {
  Transport transport = Transport::kUnix;
  std::string unix_path = "/tmp/cham_net.sock";
  uint16_t tcp_port = 0;  // kTcp: connect to 127.0.0.1:tcp_port
  // Reply frames announcing a larger payload_len are treated as a protocol
  // violation (util::CheckError) BEFORE any buffer is sized to them — the
  // header field alone must not be able to make the client allocate ~4 GiB.
  // Mirrors the server's default inbound bound.
  uint32_t max_payload_bytes = kDefaultMaxPayload;
};

class NetClient {
 public:
  // Connects (blocking socket). Throws util::CheckError on failure.
  explicit NetClient(ClientOptions opts);
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  // --- Pipelined async: send now, collect later. -------------------------
  uint64_t send_observe(uint64_t session_id, const data::Batch& batch);
  uint64_t send_predict(uint64_t session_id,
                        const std::vector<data::ImageKey>& keys);
  uint64_t send_predict_batch(
      uint64_t session_id,
      const std::vector<std::vector<data::ImageKey>>& pages);
  // FLUSH / STATS / SHUTDOWN (empty-payload requests).
  uint64_t send_control(MsgType type, uint64_t session_id = 0);

  // Blocks until the reply for `request_id` has been read. Throws
  // util::CheckError if the server closes the connection or breaks protocol
  // first (a server ERROR frame is a normal Reply, not an exception).
  Reply await_reply(uint64_t request_id);

  // --- Blocking convenience. ---------------------------------------------
  Reply observe(uint64_t session_id, const data::Batch& batch) {
    return await_reply(send_observe(session_id, batch));
  }
  Reply predict(uint64_t session_id, const std::vector<data::ImageKey>& keys) {
    return await_reply(send_predict(session_id, keys));
  }
  Reply predict_batch(uint64_t session_id,
                      const std::vector<std::vector<data::ImageKey>>& pages) {
    return await_reply(send_predict_batch(session_id, pages));
  }
  Reply flush() { return await_reply(send_control(MsgType::kFlush)); }
  Reply stats_json() { return await_reply(send_control(MsgType::kStats)); }
  Reply shutdown_server() { return await_reply(send_control(MsgType::kShutdown)); }

  // --- Retry-on-backpressure loops (sleep the hinted interval). ----------
  // Give up (returning the last backpressure Reply) after max_tries.
  Reply observe_admitted(uint64_t session_id, const data::Batch& batch,
                         int max_tries = 1000);
  Reply predict_admitted(uint64_t session_id,
                         const std::vector<data::ImageKey>& keys,
                         int max_tries = 1000);
  Reply predict_batch_admitted(
      uint64_t session_id,
      const std::vector<std::vector<data::ImageKey>>& pages,
      int max_tries = 1000);

  // Test hook: write arbitrary bytes to the socket (malformed-frame and
  // split-write robustness tests drive the server through this).
  void send_raw(const uint8_t* p, std::size_t n);

  int fd() const { return fd_; }

 private:
  uint64_t next_id() { return next_req_++; }
  void flush_send_buf();
  void write_all(const uint8_t* p, std::size_t n);
  // False on orderly EOF before the first header byte (throws on protocol
  // violations or EOF mid-frame).
  bool read_reply(Reply& out);

  int fd_ = -1;
  uint32_t max_payload_bytes_ = kDefaultMaxPayload;
  uint64_t next_req_ = 1;
  WireBuf send_buf_;
  std::vector<uint8_t> recv_buf_;
  std::map<uint64_t, Reply> stash_;  // replies read while waiting for others
};

}  // namespace cham::net
