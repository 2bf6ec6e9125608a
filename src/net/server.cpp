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
}

NetServer::~NetServer() { stop(); }

void NetServer::stop() {
  stop_requested_.store(true, std::memory_order_relaxed);
  wake_io();
  util::MutexLock lock(lifecycle_mu_);
  if (joined_) return;
  joined_ = true;
  if (io_thread_.joinable()) io_thread_.join();
  // Connections force-closed past the drain deadline may still have
  // predicts queued; their hooks write to the self-pipe, so run them all
  // before it closes.
  mgr_.drain();
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

// ---------------------------------------------------------------------------
// Outbound queueing.

bool NetServer::enqueue(Connection& c, WireBuf frame, bool retire) {
  const int64_t sz = static_cast<int64_t>(frame.size());
  int64_t depth = 0;
  {
    util::MutexLock lock(c.mu);
    // cham-lint: begin(net_mu)
    if (retire) --c.inflight;
    if (c.closed || frame.empty()) return false;
    c.outbox.push_back(std::move(frame));
    c.outbox_bytes += sz;
    depth = c.outbox_bytes;
    // cham-lint: end(net_mu)
  }
  util::MutexLock slock(stats_mu_);
  stats_.frames_out += 1;
  stats_.note_outbox_bytes(depth);
  return true;
}

int64_t NetServer::check_outbox(Connection& c) {
  int64_t depth = 0;
  {
    util::MutexLock lock(c.mu);
    // cham-lint: begin(net_mu)
    depth = c.outbox_bytes;
    // cham-lint: end(net_mu)
  }
  const bool over = depth > cfg_.outbox_limit_bytes / 2;
  if (over && !c.paused) {
    util::MutexLock slock(stats_mu_);
    stats_.write_stalls += 1;
  }
  c.paused = over;
  return depth;
}

bool NetServer::flush_writes(Connection& c) {
  for (;;) {
    if (c.wire_off >= c.wire.size()) {
      c.wire.clear();
      c.wire_off = 0;
      {
        util::MutexLock lock(c.mu);
        // cham-lint: begin(net_mu)
        while (!c.outbox.empty() &&
               c.wire.size() < (std::size_t{256} << 10)) {
          WireBuf& f = c.outbox.front();
          c.wire.insert(c.wire.end(), f.begin(), f.end());
          c.outbox_bytes -= static_cast<int64_t>(f.size());
          c.outbox.pop_front();
        }
        // cham-lint: end(net_mu)
      }
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
    // flush path closes once the error reply drains. A paused one leaves
    // its bytes in the kernel until the outbox drains.
    if (c.want_close || c.paused) return true;
    uint8_t chunk[64 << 10];
    ssize_t n = ::read(c.fd, chunk, sizeof(chunk));
    if (n > 0) {
      {
        util::MutexLock slock(stats_mu_);
        stats_.bytes_in += n;
      }
      c.rdbuf.insert(c.rdbuf.end(), chunk, chunk + n);
      parse_frames(c);
      if (c.want_close || c.paused) return true;  // see the loop head
      if (static_cast<std::size_t>(n) < sizeof(chunk)) return true;
      continue;  // more may be buffered in the kernel
    }
    if (n == 0) return false;  // orderly EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;
  }
}

void NetServer::parse_frames(Connection& c) {
  if (c.want_close) return;  // error reply already queued; one only
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
    // Flow control per frame, not per read: one read's worth of pipelined
    // frames must not overshoot the outbox bound. The rest waits in rdbuf
    // until io_loop() resumes it.
    check_outbox(c);
    if (c.paused) break;
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
      enqueue(c, std::move(reply));
      {
        util::MutexLock slock(stats_mu_);
        if (err == ErrCode::kBadVersion) {
          stats_.err_bad_version += 1;
        } else {
          stats_.err_malformed += 1;
        }
      }
      c.want_close = true;
      return;  // stop parsing; flush path closes after the reply
    }
    if (err == ErrCode::kOversized) {
      WireBuf reply;
      encode_error(reply, h.session_id, h.request_id, err, 0,
                   "payload exceeds server limit");
      enqueue(c, std::move(reply));
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
      enqueue(c, std::move(reply));
      util::MutexLock slock(stats_mu_);
      stats_.err_bad_crc += 1;
      continue;  // framing is intact; skip just this frame
    }
    handle_frame(c, h, payload);
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
}

void NetServer::handle_frame(Connection& c, const FrameHeader& h,
                             const uint8_t* payload) {
  const bool draining = stop_requested_.load(std::memory_order_relaxed);
  WireBuf reply;

  if (h.type == MsgType::kShutdown) {
    {
      util::MutexLock slock(stats_mu_);
      stats_.shutdowns_in += 1;
    }
    encode_control(reply, MsgType::kShutdownOk, h.session_id, h.request_id);
    enqueue(c, std::move(reply));
    stop_requested_.store(true, std::memory_order_relaxed);
    return;  // the I/O loop notices and begins the drain
  }
  if (draining) {
    encode_error(reply, h.session_id, h.request_id, ErrCode::kShuttingDown, 0,
                 "server is draining");
    enqueue(c, std::move(reply));
    util::MutexLock slock(stats_mu_);
    stats_.err_shutting_down += 1;
    return;
  }

  switch (h.type) {
    case MsgType::kObserve: {
      if (!decode_observe(payload, h.payload_len, obs_batch_)) {
        encode_error(reply, h.session_id, h.request_id, ErrCode::kMalformed, 0,
                     "undecodable OBSERVE payload");
        enqueue(c, std::move(reply));
        util::MutexLock slock(stats_mu_);
        stats_.err_malformed += 1;
        return;
      }
      serve::Admission adm = mgr_.submit_observe(h.session_id, obs_batch_);
      if (adm.accepted) {
        encode_observe_ok(reply, h.session_id, h.request_id, adm.queue_depth);
        enqueue(c, std::move(reply));
        admitted_ = true;
        util::MutexLock slock(stats_mu_);
        stats_.observes_in += 1;
        stats_.observe_acks += 1;
      } else {
        encode_error(reply, h.session_id, h.request_id, ErrCode::kBackpressure,
                     adm.retry_after_ms, "observe queue full");
        enqueue(c, std::move(reply));
        util::MutexLock slock(stats_mu_);
        stats_.observes_in += 1;
        stats_.err_backpressure += 1;
      }
      return;
    }
    case MsgType::kPredict: {
      if (!decode_predict(payload, h.payload_len, keys_)) {
        encode_error(reply, h.session_id, h.request_id, ErrCode::kMalformed, 0,
                     "undecodable PREDICT payload");
        enqueue(c, std::move(reply));
        util::MutexLock slock(stats_mu_);
        stats_.err_malformed += 1;
        return;
      }
      submit_predict(c, h);
      return;
    }
    case MsgType::kFlush: {
      // Inline, in both modes: flush() drains first, and a request counts
      // as done only after its completion hook returned, so FLUSH_OK
      // trails every reply to this connection's earlier predicts.
      mgr_.flush();
      encode_control(reply, MsgType::kFlushOk, h.session_id, h.request_id);
      enqueue(c, std::move(reply));
      util::MutexLock slock(stats_mu_);
      stats_.flushes_in += 1;
      return;
    }
    case MsgType::kStats: {
      {
        util::MutexLock slock(stats_mu_);
        stats_.stats_in += 1;
      }
      encode_stats_result(reply, h.request_id, build_stats_json());
      enqueue(c, std::move(reply));
      return;
    }
    default: {
      encode_error(reply, h.session_id, h.request_id, ErrCode::kUnknownType, 0,
                   "unknown request type");
      enqueue(c, std::move(reply));
      util::MutexLock slock(stats_mu_);
      stats_.err_unknown_type += 1;
      return;
    }
  }
}

void NetServer::submit_predict(Connection& c, const FrameHeader& h) {
  auto p = std::make_shared<PendingReply>();
  p->conn = c.shared_from_this();
  p->session_id = h.session_id;
  p->request_id = h.request_id;
  {
    util::MutexLock lock(c.mu);
    // cham-lint: begin(net_mu)
    ++c.inflight;
    // cham-lint: end(net_mu)
  }
  const serve::Admission adm = mgr_.submit_predict(
      h.session_id, keys_, &p->result, [this, p] { reply_predict(*p); });
  {
    util::MutexLock slock(stats_mu_);
    stats_.predicts_in += 1;
    stats_.err_backpressure += adm.accepted ? 0 : 1;
  }
  if (adm.accepted) {
    admitted_ = true;
    return;
  }
  WireBuf reply;
  encode_error(reply, h.session_id, h.request_id, ErrCode::kBackpressure,
               adm.retry_after_ms, "predict queue full");
  enqueue(c, std::move(reply), /*retire=*/true);
}

void NetServer::reply_predict(PendingReply& p) {
  WireBuf frame;
  bool failed = false;
  try {
    const std::vector<int64_t> preds = p.result.get();
    encode_predict_result(frame, p.session_id, p.request_id, preds);
  } catch (const std::exception& e) {
    failed = true;
    encode_error(frame, p.session_id, p.request_id, ErrCode::kDispatchFailed,
                 0, e.what());
  }
  if (enqueue(*p.conn, std::move(frame), /*retire=*/true)) {
    util::MutexLock slock(stats_mu_);
    stats_.err_dispatch += failed ? 1 : 0;
    stats_.predict_replies += failed ? 0 : 1;
  }
  wake_io();  // write the reply, or re-check the drain gate
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
    conns_.push_back(std::move(conn));
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
    // cham-lint: begin(net_mu)
    c.closed = true;
    // cham-lint: end(net_mu)
  }
  util::MutexLock slock(stats_mu_);
  stats_.connections_closed += 1;
}

void NetServer::io_loop() {
  const bool dispatches =
      mgr_.config().mode == serve::ServeMode::kDeterministic;
  std::vector<pollfd> pfds;
  std::vector<std::shared_ptr<Connection>> active;
  bool draining = false;
  std::chrono::steady_clock::time_point drain_deadline{};
  auto reap = [this] {
    std::erase_if(conns_, [](const auto& c) { return c->fd < 0; });
  };

  for (;;) {
    if (!draining && stop_requested_.load(std::memory_order_relaxed)) {
      draining = true;
      ::close(listen_fd_);
      listen_fd_ = -1;
      drain_deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(cfg_.drain_timeout_ms);
    }

    // Frames a pause left in rdbuf resume once their outbox has drained.
    for (auto& conn : conns_) {
      Connection& c = *conn;
      if (c.rd_off == c.rdbuf.size()) continue;
      check_outbox(c);
      if (!c.paused) parse_frames(c);
    }
    // A deterministic manager has no shard workers: this thread dispatches
    // what the last pass admitted, and the hooks queue the replies.
    if (dispatches && admitted_) {
      admitted_ = false;
      mgr_.drain();
    }

    if (draining) {
      // Graceful drain: a connection closes once it has no predict in
      // flight AND every queued reply byte reached the socket. Past the
      // deadline, close regardless (the peer stopped reading).
      const bool expired = std::chrono::steady_clock::now() >= drain_deadline;
      for (auto& conn : conns_) {
        Connection& c = *conn;
        bool idle;
        {
          util::MutexLock lock(c.mu);
          // cham-lint: begin(net_mu)
          idle = c.inflight == 0 && c.outbox.empty();
          // cham-lint: end(net_mu)
        }
        if ((idle && c.wire_off >= c.wire.size()) || expired) {
          close_connection(c);
        }
      }
      reap();
      if (conns_.empty()) break;  // fully drained
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
      // Flow control: stop reading from a connection whose replies are not
      // being consumed; resume below half the bound.
      const bool has_out =
          check_outbox(c) > 0 || c.wire_off < c.wire.size();
      if (c.want_close && !has_out) {
        // Error reply flushed; nothing more to say.
        close_connection(c);
        continue;
      }
      short events = 0;
      if (!c.paused && !c.want_close) events |= POLLIN;
      if (has_out) events |= POLLOUT;
      pfds.push_back({c.fd, events, 0});
      active.push_back(conn);
    }
    reap();

    const int timeout_ms = draining ? 20 : -1;
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
      const short rev = pfds[idx].revents;
      bool ok = true;
      if (rev & (POLLIN | POLLHUP | POLLERR)) ok = read_ready(c);
      if (ok && (rev & POLLOUT)) ok = flush_writes(c);
      // Abrupt disconnect (possibly with predicts in flight): close now;
      // their hooks find the connection closed and drop the replies.
      if (!ok) close_connection(c);
    }
    reap();
  }

  // Exit: anything still open closes un-gracefully (drain deadline passed
  // or poll failed). stop() runs the completions still owed to them.
  for (auto& conn : conns_) close_connection(*conn);
  conns_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  io_exited_.store(true, std::memory_order_relaxed);
}

}  // namespace cham::net
