#include "loadgen.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace net = cham::net;
using Clock = std::chrono::steady_clock;

struct WireLoad::Conn {
  int fd = -1;
  net::WireBuf out;          // encoded frames not yet written
  std::size_t out_off = 0;
  std::vector<uint8_t> in;   // bytes read, not yet parsed
  std::size_t in_off = 0;
  int64_t inflight = 0;      // sent, reply not yet read
  int64_t queued = 0;        // released to a session queue, not yet sent
};

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("loadgen: " + what + ": " + std::strerror(errno));
}

// Writes as much of c.out as the socket takes; false on a hard error.
bool flush_out(int fd, net::WireBuf& out, std::size_t& off) {
  while (off < out.size()) {
    const ssize_t n = ::send(fd, out.data() + off, out.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
  out.clear();
  off = 0;
  return true;
}

// Appends whatever the socket has; false on EOF or a hard error.
bool read_some(int fd, std::vector<uint8_t>& in) {
  uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      in.insert(in.end(), buf, buf + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
}

// Pops the next complete frame off `in` into (h, payload); false if none.
bool next_frame(std::vector<uint8_t>& in, std::size_t& off,
                net::FrameHeader& h, const uint8_t*& payload) {
  if (in.size() - off < net::kHeaderBytes) return false;
  if (!net::read_header(in.data() + off, in.size() - off, h) ||
      net::header_error(h, net::kDefaultMaxPayload) != net::kHeaderOk) {
    throw std::runtime_error("loadgen: malformed reply header");
  }
  if (in.size() - off < net::kHeaderBytes + h.payload_len) return false;
  payload = in.data() + off + net::kHeaderBytes;
  if (net::crc32(payload, h.payload_len) != h.payload_crc) {
    throw std::runtime_error("loadgen: reply CRC mismatch");
  }
  off += net::kHeaderBytes + h.payload_len;
  return true;
}

void compact(std::vector<uint8_t>& in, std::size_t& off) {
  if (off == in.size()) {
    in.clear();
    off = 0;
  } else if (off > (std::size_t{1} << 16)) {
    in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(off));
    off = 0;
  }
}

}  // namespace

WireLoad::WireLoad(const std::string& unix_path, int connections) {
  for (int i = 0; i < connections; ++i) {
    auto c = std::make_unique<Conn>();
    c->fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (c->fd < 0) fail("socket");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (unix_path.size() >= sizeof(addr.sun_path)) {
      ::close(c->fd);
      throw std::runtime_error("loadgen: socket path too long");
    }
    std::memcpy(addr.sun_path, unix_path.c_str(), unix_path.size() + 1);
    if (::connect(c->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(c->fd);
      fail("connect " + unix_path);
    }
    ::fcntl(c->fd, F_SETFL, ::fcntl(c->fd, F_GETFL) | O_NONBLOCK);
    conns_.push_back(std::move(c));
  }
}

WireLoad::~WireLoad() {
  for (auto& c : conns_) ::close(c->fd);
}

PhaseResult WireLoad::run(const std::vector<Op>& ops, const Inputs& in,
                          const PhaseOptions& opt) {
  // Wake on time: the default 50 us timer slack would add to every
  // request's latency (measured from its due time).
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const auto t0 = Clock::now();
  auto now_s = [t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const int64_t nconn = static_cast<int64_t>(conns_.size());
  const std::size_t n = ops.size();

  PhaseResult res;
  res.records.resize(n);

  struct Sess {
    std::deque<std::size_t> queue;  // released, unsent, in session order
    int64_t observes_out = 0;       // sent observes without a reply
    int64_t predicts_out = 0;       // sent predicts without a reply
    double not_before = 0;          // backpressure retry hint
    double ready = 0;               // last time a reply could unblock it
    bool active = false;            // listed in `active`
  };
  std::vector<Sess> sess(in.streams.size());
  std::vector<int64_t> active;  // sessions with a non-empty queue

  // Per-connection release order (each session is pinned to one).
  std::vector<std::vector<std::size_t>> conn_ops(static_cast<size_t>(nconn));
  for (std::size_t i = 0; i < n; ++i) {
    conn_ops[static_cast<size_t>(ops[i].session % nconn)].push_back(i);
  }
  std::vector<std::size_t> cursor(static_cast<size_t>(nconn), 0);
  std::unordered_map<uint64_t, std::size_t> pending_ids;
  int64_t unanswered = 0;
  bool releasing = true;

  auto conn_of = [&](std::size_t i) -> Conn& {
    return *conns_[static_cast<size_t>(ops[i].session % nconn)];
  };
  auto enlist = [&](int64_t s) {
    if (!sess[static_cast<size_t>(s)].active) {
      sess[static_cast<size_t>(s)].active = true;
      active.push_back(s);
    }
  };
  auto release = [&](std::size_t i, double due) {
    Record& r = res.records[i];
    r.released = true;
    r.due_s = due;
    Sess& s = sess[static_cast<size_t>(ops[i].session)];
    s.queue.push_back(i);
    enlist(ops[i].session);
    ++conn_of(i).queued;
    ++unanswered;
    ++res.released;
  };
  auto send_op = [&](std::size_t i, double t) {
    const Op& op = ops[i];
    Conn& c = conn_of(i);
    const uint64_t id = next_request_id_++;
    const auto sid = static_cast<uint64_t>(op.session);
    if (op.kind == Kind::kObserve) {
      net::encode_observe(c.out, sid, id, in.batch(op));
    } else {
      net::encode_predict(c.out, sid, id, op.keys);
    }
    pending_ids.emplace(id, i);
    Record& r = res.records[i];
    if (r.attempts++ == 0) {
      r.first_send_s = t;
      r.ready_s = std::max(r.due_s,
                           sess[static_cast<size_t>(op.session)].ready);
    }
    --c.queued;
    ++c.inflight;
    ++res.sent;
  };

  net::ErrorInfo err;
  auto handle_reply = [&](const net::FrameHeader& h, const uint8_t* payload,
                          Conn& c) {
    auto it = pending_ids.find(h.request_id);
    if (it == pending_ids.end()) {
      throw std::runtime_error("loadgen: reply to an unknown request id");
    }
    const std::size_t i = it->second;
    pending_ids.erase(it);
    --c.inflight;
    const double t = now_s();
    Record& r = res.records[i];
    Sess& s = sess[static_cast<size_t>(ops[i].session)];
    (ops[i].kind == Kind::kObserve ? s.observes_out : s.predicts_out) -= 1;
    s.ready = t;
    bool ok = false;
    if (h.type == net::MsgType::kObserveOk &&
        ops[i].kind == Kind::kObserve) {
      ok = true;
    } else if (h.type == net::MsgType::kPredictResult &&
               ops[i].kind == Kind::kPredict) {
      ok = net::decode_predict_result(payload, h.payload_len, r.preds);
    } else if (h.type == net::MsgType::kError &&
               net::decode_error(payload, h.payload_len, err) &&
               err.code == net::ErrCode::kBackpressure) {
      // Back to the head of the session's queue; everything behind it in
      // that session waits for the retry.
      ++res.rejected;
      s.queue.push_front(i);
      s.not_before =
          t + std::min(opt.max_retry_s,
                       static_cast<double>(err.retry_after_ms) / 1000.0);
      s.ready = s.not_before;
      ++c.queued;
      enlist(ops[i].session);
      return;
    }
    r.ok = ok;
    r.reply_s = t;
    --unanswered;
    if (ok) ++res.ok;
  };

  std::vector<pollfd> fds(static_cast<size_t>(nconn));
  double deadline = -1;
  double next_tick = opt.tick_s;
  for (;;) {
    double t = now_s();
    if (opt.on_tick && releasing && t >= next_tick) {
      opt.on_tick(t);
      next_tick += opt.tick_s;
    }

    // 1. Release.
    if (opt.open_loop) {
      for (int64_t c = 0; c < nconn; ++c) {
        auto& list = conn_ops[static_cast<size_t>(c)];
        auto& cur = cursor[static_cast<size_t>(c)];
        while (cur < list.size() && ops[list[cur]].due_s <= t) {
          release(list[cur], ops[list[cur]].due_s);
          ++cur;
        }
      }
    } else if (releasing) {
      if (t >= opt.release_seconds) {
        releasing = false;
      } else {
        for (int64_t c = 0; c < nconn; ++c) {
          Conn& conn = *conns_[static_cast<size_t>(c)];
          auto& list = conn_ops[static_cast<size_t>(c)];
          auto& cur = cursor[static_cast<size_t>(c)];
          while (cur < list.size() &&
                 conn.inflight + conn.queued < opt.window) {
            release(list[cur], t);
            ++cur;
          }
        }
      }
    }
    bool all_released = true;
    for (int64_t c = 0; c < nconn; ++c) {
      const auto k = static_cast<size_t>(c);
      all_released = all_released && cursor[k] == conn_ops[k].size();
    }
    if (all_released) releasing = false;

    // 2. Send whatever session order allows.
    double next_wake = t + 0.02;
    for (std::size_t a = 0; a < active.size();) {
      const int64_t sid = active[a];
      Sess& s = sess[static_cast<size_t>(sid)];
      while (!s.queue.empty()) {
        if (t < s.not_before) {
          next_wake = std::min(next_wake, s.not_before);
          break;
        }
        const std::size_t i = s.queue.front();
        const bool blocked = ops[i].kind == Kind::kObserve
                                 ? s.observes_out + s.predicts_out > 0
                                 : s.observes_out > 0;
        if (blocked) break;
        s.queue.pop_front();
        send_op(i, t);
        (ops[i].kind == Kind::kObserve ? s.observes_out : s.predicts_out) +=
            1;
      }
      if (s.queue.empty()) {
        s.active = false;
        active[a] = active.back();
        active.pop_back();
      } else {
        ++a;
      }
    }

    // 3. Write.
    for (auto& c : conns_) {
      if (!flush_out(c->fd, c->out, c->out_off)) fail("send");
    }

    // 4. Done?
    if (!releasing && unanswered == 0) break;
    if (!releasing) {
      if (deadline < 0) deadline = t + kDrainTimeoutS;
      if (t > deadline) break;
    }

    // 5. Wait for replies, writability, or the next due time.
    if (opt.open_loop) {
      for (int64_t c = 0; c < nconn; ++c) {
        const auto& list = conn_ops[static_cast<size_t>(c)];
        const auto cur = cursor[static_cast<size_t>(c)];
        if (cur < list.size()) {
          next_wake = std::min(next_wake, ops[list[cur]].due_s);
        }
      }
    } else if (releasing) {
      next_wake = std::min(next_wake, opt.release_seconds);
    }
    if (opt.on_tick && releasing) next_wake = std::min(next_wake, next_tick);
    for (int64_t c = 0; c < nconn; ++c) {
      Conn& conn = *conns_[static_cast<size_t>(c)];
      fds[static_cast<size_t>(c)] = {
          conn.fd,
          static_cast<short>(POLLIN | (conn.out.empty() ? 0 : POLLOUT)), 0};
    }
    const double wait = std::max(0.0, next_wake - now_s());
    timespec ts{static_cast<time_t>(wait),
                static_cast<long>((wait - static_cast<double>(
                                              static_cast<time_t>(wait))) *
                                  1e9)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      fail("ppoll");
    }

    // 6. Read and dispatch replies.
    for (int64_t c = 0; c < nconn; ++c) {
      const short ev = fds[static_cast<size_t>(c)].revents;
      if (!(ev & (POLLIN | POLLHUP | POLLERR))) continue;
      Conn& conn = *conns_[static_cast<size_t>(c)];
      if (!read_some(conn.fd, conn.in)) {
        throw std::runtime_error("loadgen: server closed the connection");
      }
      net::FrameHeader h;
      const uint8_t* payload = nullptr;
      while (next_frame(conn.in, conn.in_off, h, payload)) {
        handle_reply(h, payload, conn);
      }
      compact(conn.in, conn.in_off);
    }
  }

  for (const Record& r : res.records) {
    if (r.released && !r.ok) ++res.failed;
  }
  res.wall_s = now_s();
  return res;
}

std::vector<double> WireLoad::stats_round_trips(int count) {
  Conn& c = *conns_.front();
  std::vector<double> us;
  for (int k = 0; k < count; ++k) {
    const uint64_t id = next_request_id_++;
    const auto t0 = Clock::now();
    net::encode_control(c.out, net::MsgType::kStats, 0, id);
    bool got = false;
    while (!got) {
      if (!flush_out(c.fd, c.out, c.out_off)) fail("send");
      pollfd p{c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
               0};
      if (::poll(&p, 1, 5000) <= 0) fail("STATS reply timeout");
      if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
        if (!read_some(c.fd, c.in)) {
          throw std::runtime_error("loadgen: server closed the connection");
        }
        net::FrameHeader h;
        const uint8_t* payload = nullptr;
        while (next_frame(c.in, c.in_off, h, payload)) {
          if (h.request_id == id && h.type == net::MsgType::kStatsResult) {
            got = true;
          }
        }
        compact(c.in, c.in_off);
      }
    }
    us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  return us;
}

}  // namespace perfbench
