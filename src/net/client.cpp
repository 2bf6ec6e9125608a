#include "net/client.h"

#include <errno.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <thread>
#include <utility>

#include "util/check.h"

namespace cham::net {

NetClient::NetClient(ClientOptions opts)
    : max_payload_bytes_(opts.max_payload_bytes) {
  if (opts.transport == Transport::kUnix) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    CHAM_CHECK(fd_ >= 0, "socket(AF_UNIX) failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    CHAM_CHECK(opts.unix_path.size() < sizeof(addr.sun_path),
               "unix socket path too long: " + opts.unix_path);
    ::strncpy(addr.sun_path, opts.unix_path.c_str(), sizeof(addr.sun_path) - 1);
    CHAM_CHECK(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) == 0,
               "connect(" + opts.unix_path + ") failed: " + ::strerror(errno));
  } else {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    CHAM_CHECK(fd_ >= 0, "socket(AF_INET) failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(opts.tcp_port);
    CHAM_CHECK(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) == 0,
               "connect(127.0.0.1:" + std::to_string(opts.tcp_port) +
                   ") failed: " + ::strerror(errno));
  }
}

NetClient::~NetClient() {
  if (fd_ >= 0) ::close(fd_);
}

void NetClient::write_all(const uint8_t* p, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    // MSG_NOSIGNAL: a peer that already hung up must surface as EPIPE
    // (a CheckError below), not as a process-killing SIGPIPE.
    ssize_t w = ::send(fd_, p + off, n - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    CHAM_CHECK(false, std::string("client write failed: ") + ::strerror(errno));
  }
}

void NetClient::send_raw(const uint8_t* p, std::size_t n) { write_all(p, n); }

void NetClient::flush_send_buf() {
  write_all(send_buf_.data(), send_buf_.size());
  send_buf_.clear();
}

uint64_t NetClient::send_observe(uint64_t session_id, const data::Batch& batch) {
  const uint64_t id = next_id();
  encode_observe(send_buf_, session_id, id, batch);
  flush_send_buf();
  return id;
}

uint64_t NetClient::send_predict(uint64_t session_id,
                                 const std::vector<data::ImageKey>& keys) {
  const uint64_t id = next_id();
  encode_predict(send_buf_, session_id, id, keys);
  flush_send_buf();
  return id;
}

uint64_t NetClient::send_control(MsgType type, uint64_t session_id) {
  const uint64_t id = next_id();
  encode_control(send_buf_, type, session_id, id);
  flush_send_buf();
  return id;
}

bool NetClient::read_reply(Reply& out) {
  uint8_t hdr[kHeaderBytes];
  std::size_t off = 0;
  while (off < kHeaderBytes) {
    ssize_t r = ::read(fd_, hdr + off, kHeaderBytes - off);
    if (r > 0) {
      off += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    if (r == 0 && off == 0) return false;  // clean EOF between frames
    CHAM_CHECK(false, std::string("connection lost mid-reply (") +
                          (r == 0 ? "eof" : ::strerror(errno)) + ")");
  }
  FrameHeader h;
  CHAM_CHECK(read_header(hdr, kHeaderBytes, h), "short reply header");
  CHAM_CHECK(h.magic == kWireMagic && h.version == kWireVersion,
             "reply frame failed validation (magic/version)");
  // Bound the allocation the header can demand before trusting payload_len.
  CHAM_CHECK(h.payload_len <= max_payload_bytes_,
             "reply payload_len " + std::to_string(h.payload_len) +
                 " exceeds client limit " + std::to_string(max_payload_bytes_));
  recv_buf_.resize(h.payload_len);
  off = 0;
  while (off < h.payload_len) {
    ssize_t r = ::read(fd_, recv_buf_.data() + off, h.payload_len - off);
    if (r > 0) {
      off += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    CHAM_CHECK(false, "connection lost mid-reply payload");
  }
  if (h.payload_len > 0) {
    CHAM_CHECK(crc32(recv_buf_.data(), h.payload_len) == h.payload_crc,
               "reply payload crc mismatch");
  }

  out.type = h.type;
  out.session_id = h.session_id;
  out.request_id = h.request_id;
  out.queue_depth = 0;
  out.preds.clear();
  out.json.clear();
  switch (h.type) {
    case MsgType::kObserveOk:
      CHAM_CHECK(
          decode_observe_ok(recv_buf_.data(), h.payload_len, out.queue_depth),
          "bad OBSERVE_OK payload");
      break;
    case MsgType::kPredictResult:
      CHAM_CHECK(
          decode_predict_result(recv_buf_.data(), h.payload_len, out.preds),
          "bad PREDICT_RESULT payload");
      break;
    case MsgType::kError:
      CHAM_CHECK(decode_error(recv_buf_.data(), h.payload_len, out.error),
                 "bad ERROR payload");
      break;
    case MsgType::kStatsResult:
      out.json.assign(reinterpret_cast<const char*>(recv_buf_.data()),
                      h.payload_len);
      break;
    case MsgType::kFlushOk:
    case MsgType::kShutdownOk:
      break;  // empty payloads
    default:
      CHAM_CHECK(false, "unexpected reply type " +
                     std::to_string(static_cast<int>(h.type)) + " (" +
                     msg_type_name(h.type) + ")");
  }
  return true;
}

Reply NetClient::await_reply(uint64_t request_id) {
  auto it = stash_.find(request_id);
  if (it != stash_.end()) {
    Reply r = std::move(it->second);
    stash_.erase(it);
    return r;
  }
  for (;;) {
    Reply r;
    CHAM_CHECK(read_reply(r),
               "server closed connection while waiting for request " +
                   std::to_string(request_id));
    if (r.request_id == request_id) return r;
    stash_[r.request_id] = std::move(r);
  }
}

namespace {
void backoff(const Reply& r) {
  const int64_t ms = std::max<int64_t>(1, r.error.retry_after_ms);
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}
}  // namespace

Reply NetClient::observe_admitted(uint64_t session_id, const data::Batch& batch,
                                  int max_tries) {
  Reply r;
  for (int t = 0; t < max_tries; ++t) {
    r = observe(session_id, batch);
    if (!r.backpressured()) return r;
    backoff(r);
  }
  return r;
}

Reply NetClient::predict_admitted(uint64_t session_id,
                                  const std::vector<data::ImageKey>& keys,
                                  int max_tries) {
  Reply r;
  for (int t = 0; t < max_tries; ++t) {
    r = predict(session_id, keys);
    if (!r.backpressured()) return r;
    backoff(r);
  }
  return r;
}

}  // namespace cham::net
