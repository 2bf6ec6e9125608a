#include "net/server.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <utility>

#include "util/check.h"
#include "util/json.h"

namespace cham::net {
namespace {

void set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  CHAM_CHECK(flags >= 0, "fcntl(F_GETFL) failed");
  CHAM_CHECK(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
             "fcntl(F_SETFL, O_NONBLOCK) failed");
}

}  // namespace

NetServer::NetServer(serve::SessionManager& mgr, NetConfig cfg)
    : mgr_(mgr), cfg_(std::move(cfg)) {
  if (cfg_.transport == Transport::kUnix) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    CHAM_CHECK(listen_fd_ >= 0, "socket(AF_UNIX) failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    CHAM_CHECK(cfg_.unix_path.size() < sizeof(addr.sun_path),
               "unix socket path too long: " + cfg_.unix_path);
    ::strncpy(addr.sun_path, cfg_.unix_path.c_str(), sizeof(addr.sun_path) - 1);
    ::unlink(cfg_.unix_path.c_str());
    CHAM_CHECK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0,
               "bind(" + cfg_.unix_path + ") failed: " + ::strerror(errno));
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    CHAM_CHECK(listen_fd_ >= 0, "socket(AF_INET) failed");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(cfg_.tcp_port);
    CHAM_CHECK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0,
               "bind(127.0.0.1:" + std::to_string(cfg_.tcp_port) +
                   ") failed: " + ::strerror(errno));
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    CHAM_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                             &len) == 0,
               "getsockname failed");
    port_ = ntohs(bound.sin_port);
  }
  CHAM_CHECK(::listen(listen_fd_, cfg_.listen_backlog) == 0,
             std::string("listen failed: ") + ::strerror(errno));
  set_nonblocking(listen_fd_);

  int pipefd[2];
  CHAM_CHECK(::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) == 0, "pipe2 failed");
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];

  io_thread_ = std::thread([this] { io_loop(); });
  if (mgr_.config().mode == serve::ServeMode::kDeterministic) {
    pump_thread_ = std::thread([this] { pump_loop(); });
  }
}

NetServer::~NetServer() { stop(); }

void NetServer::stop() {
  stop_requested_.store(true, std::memory_order_relaxed);
  wake_io();
  util::MutexLock lock(lifecycle_mu_);
  if (joined_) return;
  joined_ = true;
  // Join order matters: the I/O thread's drain waits on responders, which
  // wait on futures the pump fulfils — the pump must outlive the I/O join.
  if (io_thread_.joinable()) io_thread_.join();
  if (pump_thread_.joinable()) {
    {
      util::MutexLock plock(pump_mu_);
      pump_stop_ = true;
    }
    pump_cv_.notify_all();
    pump_thread_.join();
  }
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
  wake_rd_ = wake_wr_ = -1;
  if (cfg_.transport == Transport::kUnix) ::unlink(cfg_.unix_path.c_str());
}

bool NetServer::running() const {
  return !io_exited_.load(std::memory_order_relaxed);
}

NetStats NetServer::stats() const {
  util::MutexLock lock(stats_mu_);
  return stats_;
}

void NetServer::wake_io() {
  if (wake_wr_ < 0) return;
  uint8_t b = 1;
  // Best effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = ::write(wake_wr_, &b, 1);
}

void NetServer::signal_pump() {
  if (!pump_thread_.joinable()) return;
  {
    util::MutexLock lock(pump_mu_);
    pump_work_ = true;
  }
  pump_cv_.notify_all();
}

void NetServer::pump_loop() {
  for (;;) {
    {
      util::MutexLock lock(pump_mu_);
      pump_cv_.wait(lock, [this]() CHAM_REQUIRES(pump_mu_) {
        return pump_work_ || pump_stop_;
      });
      if (pump_stop_ && !pump_work_) return;
      pump_work_ = false;
    }
    mgr_.drain();
  }
}

// ---------------------------------------------------------------------------
// Outbound queueing.

void NetServer::enqueue_from_io(Connection& c, WireBuf frame) {
  const int64_t sz = static_cast<int64_t>(frame.size());
  int64_t depth = 0;
  {
    util::MutexLock lock(c.mu);
    // cham-lint: begin(net_mu)
    if (c.closed) return;
    c.outbox.push_back(std::move(frame));
    c.outbox_bytes += sz;
    depth = c.outbox_bytes;
    // cham-lint: end(net_mu)
  }
  {
    util::MutexLock slock(stats_mu_);
    stats_.frames_out += 1;
    stats_.note_outbox_bytes(depth);
  }
  // No wake_io(): only the I/O thread calls this, and it flushes writable
  // connections on the same iteration.
}

bool NetServer::enqueue_from_responder(Connection& c, WireBuf frame) {
  const int64_t sz = static_cast<int64_t>(frame.size());
  const int64_t limit = cfg_.outbox_limit_bytes;
  int64_t depth = 0;
  {
    util::MutexLock lock(c.mu);
    // cham-lint: begin(net_mu)
    c.cv_space.wait(lock, [&c, sz, limit]() CHAM_REQUIRES(c.mu) {
      return c.closed || c.outbox_bytes + sz <= limit || c.outbox.empty();
    });
    if (c.closed) return false;
    c.outbox.push_back(std::move(frame));
    c.outbox_bytes += sz;
    depth = c.outbox_bytes;
    // cham-lint: end(net_mu)
  }
  {
    util::MutexLock slock(stats_mu_);
    stats_.frames_out += 1;
    stats_.note_outbox_bytes(depth);
  }
  wake_io();
  return true;
}

bool NetServer::flush_writes(Connection& c) {
  for (;;) {
    if (c.wire_off >= c.wire.size()) {
      c.wire.clear();
      c.wire_off = 0;
      bool freed = false;
      {
        util::MutexLock lock(c.mu);
        // cham-lint: begin(net_mu)
        while (!c.outbox.empty() &&
               c.wire.size() < (std::size_t{256} << 10)) {
          WireBuf& f = c.outbox.front();
          c.wire.insert(c.wire.end(), f.begin(), f.end());
          c.outbox_bytes -= static_cast<int64_t>(f.size());
          c.outbox.pop_front();
          freed = true;
        }
        // cham-lint: end(net_mu)
      }
      if (freed) c.cv_space.notify_all();
      if (c.wire.empty()) return true;  // nothing left to write
    }
    while (c.wire_off < c.wire.size()) {
      // MSG_NOSIGNAL: a vanished peer is EPIPE ("peer gone" below), not a
      // SIGPIPE that kills the server.
      ssize_t n = ::send(c.fd, c.wire.data() + c.wire_off,
                         c.wire.size() - c.wire_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.wire_off += static_cast<std::size_t>(n);
        util::MutexLock slock(stats_mu_);
        stats_.bytes_out += n;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;  // peer gone
    }
  }
}

// ---------------------------------------------------------------------------
// Inbound parsing + dispatch.

bool NetServer::read_ready(Connection& c) {
  for (;;) {
    // A connection marked for close (unsyncable stream) answers exactly
    // once: stop consuming input, even on a POLLHUP-driven call — the
    // flush path closes once the error reply drains.
    if (c.want_close) return true;
    uint8_t chunk[64 << 10];
    ssize_t n = ::read(c.fd, chunk, sizeof(chunk));
    if (n > 0) {
      {
        util::MutexLock slock(stats_mu_);
        stats_.bytes_in += n;
      }
      c.rdbuf.insert(c.rdbuf.end(), chunk, chunk + n);
      if (!parse_frames(c)) return false;
      if (c.want_close) return true;  // error replied; drop trailing bytes
      if (static_cast<std::size_t>(n) < sizeof(chunk)) return true;
      continue;  // more may be buffered in the kernel
    }
    if (n == 0) return false;  // orderly EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;
  }
}

bool NetServer::parse_frames(Connection& c) {
  if (c.want_close) return true;  // error reply already queued; one only
  for (;;) {
    // Finish skipping an oversized payload already rejected.
    if (c.discard_left > 0) {
      std::size_t avail = c.rdbuf.size() - c.rd_off;
      std::size_t take = std::min(avail, c.discard_left);
      c.rd_off += take;
      c.discard_left -= take;
      if (c.discard_left > 0) break;  // need more bytes
    }
    std::size_t avail = c.rdbuf.size() - c.rd_off;
    if (avail < kHeaderBytes) break;
    FrameHeader h;
    read_header(c.rdbuf.data() + c.rd_off, avail, h);
    ErrCode err = header_error(h, cfg_.max_payload_bytes);
    if (err == ErrCode::kMalformed || err == ErrCode::kBadVersion) {
      // The stream cannot be re-synchronised (bad magic) or the header
      // layout itself is suspect (unknown version): reply, then close once
      // the reply drains.
      WireBuf reply;
      encode_error(reply, h.session_id, h.request_id, err, 0,
                   err == ErrCode::kBadVersion ? "unsupported wire version"
                                               : "bad frame magic");
      enqueue_from_io(c, std::move(reply));
      {
        util::MutexLock slock(stats_mu_);
        if (err == ErrCode::kBadVersion) {
          stats_.err_bad_version += 1;
        } else {
          stats_.err_malformed += 1;
        }
      }
      c.want_close = true;
      return true;  // stop parsing; flush path closes after the reply
    }
    if (err == ErrCode::kOversized) {
      WireBuf reply;
      encode_error(reply, h.session_id, h.request_id, err, 0,
                   "payload exceeds server limit");
      enqueue_from_io(c, std::move(reply));
      {
        util::MutexLock slock(stats_mu_);
        stats_.err_oversized += 1;
      }
      c.rd_off += kHeaderBytes;
      c.discard_left = h.payload_len;  // skip without buffering
      continue;
    }
    if (avail < kHeaderBytes + h.payload_len) break;  // partial frame
    const uint8_t* payload = c.rdbuf.data() + c.rd_off + kHeaderBytes;
    c.rd_off += kHeaderBytes + h.payload_len;
    {
      util::MutexLock slock(stats_mu_);
      stats_.frames_in += 1;
    }
    if (h.payload_len > 0 && crc32(payload, h.payload_len) != h.payload_crc) {
      WireBuf reply;
      encode_error(reply, h.session_id, h.request_id, ErrCode::kBadCrc, 0,
                   "payload crc mismatch");
      enqueue_from_io(c, std::move(reply));
      util::MutexLock slock(stats_mu_);
      stats_.err_bad_crc += 1;
      continue;  // framing is intact; skip just this frame
    }
    if (!handle_frame(c, h, payload)) return false;
    if (c.want_close) return true;
  }
  // Compact the consumed prefix once it dominates the buffer.
  if (c.rd_off == c.rdbuf.size()) {
    c.rdbuf.clear();
    c.rd_off = 0;
  } else if (c.rd_off > (std::size_t{1} << 20)) {
    c.rdbuf.erase(c.rdbuf.begin(),
                  c.rdbuf.begin() + static_cast<std::ptrdiff_t>(c.rd_off));
    c.rd_off = 0;
  }
  return true;
}

bool NetServer::handle_frame(Connection& c, const FrameHeader& h,
                             const uint8_t* payload) {
  const bool draining = stop_requested_.load(std::memory_order_relaxed);
  WireBuf reply;

  if (h.type == MsgType::kShutdown) {
    {
      util::MutexLock slock(stats_mu_);
      stats_.shutdowns_in += 1;
    }
    encode_control(reply, MsgType::kShutdownOk, h.session_id, h.request_id);
    enqueue_from_io(c, std::move(reply));
    stop_requested_.store(true, std::memory_order_relaxed);
    return true;  // the I/O loop notices and begins the drain
  }
  if (draining) {
    encode_error(reply, h.session_id, h.request_id, ErrCode::kShuttingDown, 0,
                 "server is draining");
    enqueue_from_io(c, std::move(reply));
    util::MutexLock slock(stats_mu_);
    stats_.err_shutting_down += 1;
    return true;
  }

  switch (h.type) {
    case MsgType::kObserve: {
      if (!decode_observe(payload, h.payload_len, obs_batch_)) {
        encode_error(reply, h.session_id, h.request_id, ErrCode::kMalformed, 0,
                     "undecodable OBSERVE payload");
        enqueue_from_io(c, std::move(reply));
        util::MutexLock slock(stats_mu_);
        stats_.err_malformed += 1;
        return true;
      }
      serve::Admission adm = mgr_.submit_observe(h.session_id, obs_batch_);
      if (adm.accepted) {
        encode_observe_ok(reply, h.session_id, h.request_id, adm.queue_depth);
        enqueue_from_io(c, std::move(reply));
        signal_pump();
        util::MutexLock slock(stats_mu_);
        stats_.observes_in += 1;
        stats_.observe_acks += 1;
      } else {
        encode_error(reply, h.session_id, h.request_id, ErrCode::kBackpressure,
                     adm.retry_after_ms, "observe queue full");
        enqueue_from_io(c, std::move(reply));
        util::MutexLock slock(stats_mu_);
        stats_.observes_in += 1;
        stats_.err_backpressure += 1;
      }
      return true;
    }
    case MsgType::kPredict: {
      if (!decode_predict(payload, h.payload_len, keys_)) {
        encode_error(reply, h.session_id, h.request_id, ErrCode::kMalformed, 0,
                     "undecodable PREDICT payload");
        enqueue_from_io(c, std::move(reply));
        util::MutexLock slock(stats_mu_);
        stats_.err_malformed += 1;
        return true;
      }
      Pending item;
      item.type = MsgType::kPredict;
      item.session_id = h.session_id;
      item.request_id = h.request_id;
      item.futures.resize(1);
      serve::Admission adm =
          mgr_.submit_predict(h.session_id, keys_, &item.futures[0]);
      if (!adm.accepted) {
        encode_error(reply, h.session_id, h.request_id, ErrCode::kBackpressure,
                     adm.retry_after_ms, "predict queue full");
        enqueue_from_io(c, std::move(reply));
        util::MutexLock slock(stats_mu_);
        stats_.predicts_in += 1;
        stats_.err_backpressure += 1;
        return true;
      }
      {
        util::MutexLock lock(c.mu);
        // cham-lint: begin(net_mu)
        c.pending.push_back(std::move(item));
        // cham-lint: end(net_mu)
      }
      c.cv_work.notify_all();
      signal_pump();
      util::MutexLock slock(stats_mu_);
      stats_.predicts_in += 1;
      return true;
    }
    case MsgType::kPredictBatch: {
      if (!decode_predict_batch(payload, h.payload_len, pages_) ||
          pages_.empty()) {
        encode_error(reply, h.session_id, h.request_id, ErrCode::kMalformed, 0,
                     "undecodable PREDICT_BATCH payload");
        enqueue_from_io(c, std::move(reply));
        util::MutexLock slock(stats_mu_);
        stats_.err_malformed += 1;
        return true;
      }
      // Pages submit as pipelined predicts so the BatchPlanner can merge
      // them (with other connections' traffic) into one eval window.
      Pending item;
      item.type = MsgType::kPredictBatch;
      item.session_id = h.session_id;
      item.request_id = h.request_id;
      item.futures.resize(pages_.size());
      serve::Admission adm;
      std::size_t admitted = 0;
      for (; admitted < pages_.size(); ++admitted) {
        adm = mgr_.submit_predict(h.session_id, pages_[admitted],
                                  &item.futures[admitted]);
        if (!adm.accepted) break;
      }
      if (admitted < pages_.size()) {
        // Not atomic under backpressure: the admitted prefix executes (its
        // results are discarded — predicts are read-only w.r.t. model
        // state), the client retries the whole request.
        encode_error(reply, h.session_id, h.request_id, ErrCode::kBackpressure,
                     adm.retry_after_ms, "predict queue full (partial batch)");
        enqueue_from_io(c, std::move(reply));
        item.futures.resize(admitted);
        item.discard = true;
        {
          util::MutexLock slock(stats_mu_);
          stats_.predict_batches_in += 1;
          stats_.predicts_in += static_cast<int64_t>(admitted);
          stats_.err_backpressure += 1;
        }
        if (admitted == 0) return true;  // nothing to consume
      } else {
        util::MutexLock slock(stats_mu_);
        stats_.predict_batches_in += 1;
        stats_.predicts_in += static_cast<int64_t>(pages_.size());
      }
      {
        util::MutexLock lock(c.mu);
        // cham-lint: begin(net_mu)
        c.pending.push_back(std::move(item));
        // cham-lint: end(net_mu)
      }
      c.cv_work.notify_all();
      signal_pump();
      return true;
    }
    case MsgType::kFlush: {
      // Rides the responder queue: ordered behind this connection's
      // already-pending predicts, and mgr_.flush() blocks — never run it on
      // the I/O thread. Safe next to the pump: the manager serialises
      // deterministic-mode dispatch, so the flush's drain and the pump's
      // never interleave.
      Pending item;
      item.type = MsgType::kFlush;
      item.session_id = h.session_id;
      item.request_id = h.request_id;
      {
        util::MutexLock lock(c.mu);
        // cham-lint: begin(net_mu)
        c.pending.push_back(std::move(item));
        // cham-lint: end(net_mu)
      }
      c.cv_work.notify_all();
      util::MutexLock slock(stats_mu_);
      stats_.flushes_in += 1;
      return true;
    }
    case MsgType::kStats: {
      {
        util::MutexLock slock(stats_mu_);
        stats_.stats_in += 1;
      }
      encode_stats_result(reply, h.request_id, build_stats_json());
      enqueue_from_io(c, std::move(reply));
      return true;
    }
    default: {
      encode_error(reply, h.session_id, h.request_id, ErrCode::kUnknownType, 0,
                   "unknown request type");
      enqueue_from_io(c, std::move(reply));
      util::MutexLock slock(stats_mu_);
      stats_.err_unknown_type += 1;
      return true;
    }
  }
}

std::string NetServer::build_stats_json() {
  serve::ServeStats serve_stats = mgr_.stats();
  NetStats net_stats = stats();
  util::JsonWriter j;
  j.raw("serve", serve_stats.to_json());
  j.raw("net", net_stats.to_json());
  return j.str();
}

// ---------------------------------------------------------------------------
// Completion scatter: one responder per connection.

void NetServer::responder_loop(std::shared_ptr<Connection> conn) {
  Connection& c = *conn;
  WireBuf frame;
  std::vector<std::vector<int64_t>> results;
  for (;;) {
    Pending item;
    {
      util::MutexLock lock(c.mu);
      // cham-lint: begin(net_mu)
      c.cv_work.wait(lock, [&c]() CHAM_REQUIRES(c.mu) {
        return c.stop_responder || !c.pending.empty();
      });
      if (c.pending.empty()) break;  // stop_responder && drained
      item = std::move(c.pending.front());
      c.pending.pop_front();
      c.busy = true;
      // cham-lint: end(net_mu)
    }

    frame.clear();
    if (item.type == MsgType::kFlush) {
      mgr_.flush();
      encode_control(frame, MsgType::kFlushOk, item.session_id,
                     item.request_id);
      enqueue_from_responder(c, std::move(frame));
      frame = WireBuf();
    } else {
      // Wait the pages in submission order; per-connection request_id
      // ordering of predict replies falls out of the queue being FIFO.
      results.resize(item.futures.size());
      bool failed = false;
      std::string what;
      for (std::size_t i = 0; i < item.futures.size(); ++i) {
        try {
          results[i] = item.futures[i].get();
        } catch (const std::exception& e) {
          failed = true;
          what = e.what();
        }
      }
      if (item.discard) {
        // Reply (a BACKPRESSURE error) already went out on admission.
      } else if (failed) {
        encode_error(frame, item.session_id, item.request_id,
                     ErrCode::kDispatchFailed, 0, what);
        if (enqueue_from_responder(c, std::move(frame))) {
          util::MutexLock slock(stats_mu_);
          stats_.err_dispatch += 1;
        }
        frame = WireBuf();
      } else {
        if (item.type == MsgType::kPredict) {
          encode_predict_result(frame, item.session_id, item.request_id,
                                results[0]);
        } else {
          encode_predict_batch_result(frame, item.session_id, item.request_id,
                                      results);
        }
        if (enqueue_from_responder(c, std::move(frame))) {
          util::MutexLock slock(stats_mu_);
          stats_.predict_replies += 1;
        }
        frame = WireBuf();
      }
    }

    {
      util::MutexLock lock(c.mu);
      c.busy = false;
    }
  }
  c.responder_done.store(true, std::memory_order_release);
  wake_io();  // the drain gate in io_loop() may be waiting on this
}

// ---------------------------------------------------------------------------
// The I/O loop.

void NetServer::accept_ready() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient failure; poll retries
    }
    set_nonblocking(fd);
    if (cfg_.sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &cfg_.sndbuf_bytes,
                   sizeof(cfg_.sndbuf_bytes));
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->responder = std::thread(
        [this, conn] { responder_loop(conn); });
    conns_.push_back(conn);
    util::MutexLock slock(stats_mu_);
    stats_.connections_accepted += 1;
    stats_.connections_high_water =
        std::max(stats_.connections_high_water,
                 static_cast<int64_t>(conns_.size()));
  }
}

void NetServer::close_connection(Connection& c) {
  if (c.fd >= 0) {
    ::close(c.fd);
    c.fd = -1;
  }
  {
    util::MutexLock lock(c.mu);
    c.closed = true;
    c.stop_responder = true;
  }
  c.cv_space.notify_all();
  c.cv_work.notify_all();
  util::MutexLock slock(stats_mu_);
  stats_.connections_closed += 1;
}

void NetServer::io_loop() {
  std::vector<pollfd> pfds;
  std::vector<std::shared_ptr<Connection>> active;
  bool draining = false;
  std::chrono::steady_clock::time_point drain_deadline{};

  for (;;) {
    if (!draining && stop_requested_.load(std::memory_order_relaxed)) {
      draining = true;
      ::close(listen_fd_);
      listen_fd_ = -1;
      drain_deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(cfg_.drain_timeout_ms);
    }

    // Reap connections whose responder has exited (join is instant then).
    for (std::size_t i = 0; i < dead_.size();) {
      if (dead_[i]->responder_done.load(std::memory_order_acquire)) {
        if (dead_[i]->responder.joinable()) dead_[i]->responder.join();
        dead_.erase(dead_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }

    if (draining) {
      // Graceful drain: a connection closes once its responder queue is
      // empty AND every queued reply byte reached the socket. Past the
      // deadline, close regardless (the peer stopped reading).
      const bool expired = std::chrono::steady_clock::now() >= drain_deadline;
      for (std::size_t i = 0; i < conns_.size();) {
        Connection& c = *conns_[i];
        bool idle;
        {
          util::MutexLock lock(c.mu);
          // cham-lint: begin(net_mu)
          idle = c.pending.empty() && !c.busy && c.outbox.empty();
          // cham-lint: end(net_mu)
        }
        idle = idle && c.wire_off >= c.wire.size();
        if (idle || expired) {
          close_connection(c);
          dead_.push_back(conns_[i]);
          conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          ++i;
        }
      }
      if (conns_.empty() && dead_.empty()) break;  // fully drained
    }

    // Build the poll set.
    pfds.clear();
    active.clear();
    pfds.push_back({wake_rd_, POLLIN, 0});
    if (!draining && listen_fd_ >= 0) {
      pfds.push_back({listen_fd_, POLLIN, 0});
    }
    for (auto& conn : conns_) {
      Connection& c = *conn;
      bool has_out;
      int64_t depth;
      {
        util::MutexLock lock(c.mu);
        // cham-lint: begin(net_mu)
        has_out = !c.outbox.empty();
        depth = c.outbox_bytes;
        // cham-lint: end(net_mu)
      }
      has_out = has_out || c.wire_off < c.wire.size();
      // Flow control: stop reading from a connection whose replies are not
      // being consumed; resume below half the bound.
      const bool over = depth > cfg_.outbox_limit_bytes / 2;
      if (over && !c.paused) {
        c.paused = true;
        util::MutexLock slock(stats_mu_);
        stats_.write_stalls += 1;
      } else if (!over && c.paused) {
        c.paused = false;
      }
      short events = 0;
      if (!c.paused && !c.want_close) events |= POLLIN;
      if (has_out) events |= POLLOUT;
      if (c.want_close && !has_out) {
        // Error reply flushed; nothing more to say.
        close_connection(c);
        continue;
      }
      pfds.push_back({c.fd, events, 0});
      active.push_back(conn);
    }
    // Connections closed above (want_close) must leave conns_.
    if (active.size() != conns_.size()) {
      for (std::size_t i = 0; i < conns_.size();) {
        if (conns_[i]->fd < 0) {
          dead_.push_back(conns_[i]);
          conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          ++i;
        }
      }
    }

    const int timeout_ms = (draining || !dead_.empty()) ? 20 : -1;
    int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) break;  // unrecoverable
    if (rc <= 0) continue;

    std::size_t idx = 0;
    if (pfds[idx].revents & POLLIN) {
      uint8_t buf[256];
      while (::read(wake_rd_, buf, sizeof(buf)) > 0) {
      }
    }
    ++idx;
    if (!draining && listen_fd_ >= 0) {
      if (pfds[idx].revents & POLLIN) accept_ready();
      ++idx;
    }
    for (std::size_t i = 0; i < active.size(); ++i, ++idx) {
      Connection& c = *active[i];
      if (c.fd < 0) continue;
      const short rev = pfds[idx].revents;
      bool ok = true;
      if (rev & (POLLIN | POLLHUP | POLLERR)) ok = read_ready(c);
      if (ok && (rev & POLLOUT)) ok = flush_writes(c);
      if (!ok) {
        // Abrupt disconnect (possibly with requests in flight): close now;
        // the responder consumes the remaining futures and exits.
        close_connection(c);
        for (std::size_t k = 0; k < conns_.size(); ++k) {
          if (conns_[k].get() == &c) {
            dead_.push_back(conns_[k]);
            conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(k));
            break;
          }
        }
      }
    }
  }

  // Exit: anything still open closes un-gracefully (drain deadline passed
  // or poll failed), then every responder joins.
  for (auto& conn : conns_) {
    close_connection(*conn);
    dead_.push_back(conn);
  }
  conns_.clear();
  for (auto& conn : dead_) {
    if (conn->responder.joinable()) conn->responder.join();
  }
  dead_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  io_exited_.store(true, std::memory_order_relaxed);
}

}  // namespace cham::net
