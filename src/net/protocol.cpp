#include "net/protocol.h"

#include <array>

#include "util/bytes.h"

namespace cham::net {
namespace {

// Reflected CRC-32 table (polynomial 0xEDB88320), built once at static
// init; the codec itself is then pure table lookups.
constexpr std::array<uint32_t, 256> make_crc_table() {
  std::array<uint32_t, 256> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[i] = c;
  }
  return t;
}
constexpr std::array<uint32_t, 256> kCrcTable = make_crc_table();

using util::put_u16;
using util::put_u32;
using util::put_u64;
using util::put_i64;
using util::Reader;

// Opens a frame: appends the header with payload_len/crc zeroed, returns
// the header's offset in `out` for close_frame to patch.
std::size_t open_frame(WireBuf& out, MsgType type, uint64_t session_id,
                       uint64_t request_id) {
  const std::size_t header_off = out.size();
  put_u32(out, kWireMagic);
  put_u16(out, kWireVersion);
  put_u16(out, static_cast<uint16_t>(type));
  put_u64(out, session_id);
  put_u64(out, request_id);
  put_u32(out, 0);  // payload_len, patched by close_frame
  put_u32(out, 0);  // payload_crc, patched by close_frame
  return header_off;
}

// Closes a frame: computes payload length + CRC over everything appended
// since open_frame and patches them into the header in place.
void close_frame(WireBuf& out, std::size_t header_off) {
  const std::size_t payload_off = header_off + kHeaderBytes;
  const uint32_t len = static_cast<uint32_t>(out.size() - payload_off);
  const uint32_t crc = len > 0 ? crc32(out.data() + payload_off, len) : 0;
  for (int i = 0; i < 4; ++i) {
    out[header_off + 24 + static_cast<std::size_t>(i)] =
        static_cast<uint8_t>(len >> (8 * i));
    out[header_off + 28 + static_cast<std::size_t>(i)] =
        static_cast<uint8_t>(crc >> (8 * i));
  }
}

}  // namespace

uint32_t crc32(const uint8_t* p, std::size_t n) {
  uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = kCrcTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void encode_observe(WireBuf& out, uint64_t session_id, uint64_t request_id,
                    const data::Batch& batch) {
  const std::size_t h = open_frame(out, MsgType::kObserve, session_id,
                                   request_id);
  data::put_batch(out, batch);
  close_frame(out, h);
}

void encode_observe_ok(WireBuf& out, uint64_t session_id, uint64_t request_id,
                       int64_t queue_depth) {
  const std::size_t h = open_frame(out, MsgType::kObserveOk, session_id,
                                   request_id);
  put_i64(out, queue_depth);
  close_frame(out, h);
}

void encode_predict(WireBuf& out, uint64_t session_id, uint64_t request_id,
                    const std::vector<data::ImageKey>& keys) {
  const std::size_t h = open_frame(out, MsgType::kPredict, session_id,
                                   request_id);
  data::put_keys(out, keys);
  close_frame(out, h);
}

void encode_predict_result(WireBuf& out, uint64_t session_id,
                           uint64_t request_id,
                           const std::vector<int64_t>& preds) {
  const std::size_t h = open_frame(out, MsgType::kPredictResult, session_id,
                                   request_id);
  put_u32(out, static_cast<uint32_t>(preds.size()));
  for (const int64_t v : preds) put_i64(out, v);
  close_frame(out, h);
}

void encode_control(WireBuf& out, MsgType type, uint64_t session_id,
                    uint64_t request_id) {
  close_frame(out, open_frame(out, type, session_id, request_id));
}

void encode_stats_result(WireBuf& out, uint64_t request_id,
                         const std::string& json) {
  const std::size_t h = open_frame(out, MsgType::kStatsResult, 0, request_id);
  out.insert(out.end(), json.begin(), json.end());
  close_frame(out, h);
}

void encode_error(WireBuf& out, uint64_t session_id, uint64_t request_id,
                  ErrCode code, int64_t retry_after_ms,
                  const std::string& message) {
  const std::size_t h = open_frame(out, MsgType::kError, session_id,
                                   request_id);
  put_u16(out, static_cast<uint16_t>(code));
  put_i64(out, retry_after_ms);
  out.insert(out.end(), message.begin(), message.end());
  close_frame(out, h);
}

bool read_header(const uint8_t* p, std::size_t n, FrameHeader& h) {
  if (n < kHeaderBytes) return false;
  Reader r{p, kHeaderBytes};
  h.magic = r.u32();
  h.version = r.u16();
  h.type = static_cast<MsgType>(r.u16());
  h.session_id = r.u64();
  h.request_id = r.u64();
  h.payload_len = r.u32();
  h.payload_crc = r.u32();
  return r.ok();
}

ErrCode header_error(const FrameHeader& h, uint32_t max_payload) {
  if (h.magic != kWireMagic) return ErrCode::kMalformed;
  if (h.version != kWireVersion) return ErrCode::kBadVersion;
  if (h.payload_len > max_payload) return ErrCode::kOversized;
  return kHeaderOk;
}

bool decode_observe(const uint8_t* p, std::size_t n, data::Batch& out) {
  Reader r{p, n};
  return data::get_batch(r, out) && r.done();
}

bool decode_observe_ok(const uint8_t* p, std::size_t n, int64_t& queue_depth) {
  Reader r{p, n};
  queue_depth = r.i64();
  return r.done();
}

bool decode_predict(const uint8_t* p, std::size_t n,
                    std::vector<data::ImageKey>& out) {
  Reader r{p, n};
  return data::get_keys(r, out) && r.done();
}

bool decode_predict_result(const uint8_t* p, std::size_t n,
                           std::vector<int64_t>& out) {
  Reader r{p, n};
  const uint32_t k = r.u32();
  if (!r.ok() || r.left() / sizeof(int64_t) < k) return false;
  out.resize(k);
  for (int64_t& v : out) v = r.i64();
  return r.done();
}

bool decode_error(const uint8_t* p, std::size_t n, ErrorInfo& out) {
  Reader r{p, n};
  out.code = static_cast<ErrCode>(r.u16());
  out.retry_after_ms = r.i64();
  if (!r.ok()) return false;
  out.message.assign(reinterpret_cast<const char*>(p) + r.off, n - r.off);
  return true;
}

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kObserve: return "OBSERVE";
    case MsgType::kPredict: return "PREDICT";
    case MsgType::kFlush: return "FLUSH";
    case MsgType::kStats: return "STATS";
    case MsgType::kShutdown: return "SHUTDOWN";
    case MsgType::kObserveOk: return "OBSERVE_OK";
    case MsgType::kPredictResult: return "PREDICT_RESULT";
    case MsgType::kFlushOk: return "FLUSH_OK";
    case MsgType::kStatsResult: return "STATS_RESULT";
    case MsgType::kShutdownOk: return "SHUTDOWN_OK";
    case MsgType::kError: return "ERROR";
  }
  return "UNKNOWN";
}

const char* err_code_name(ErrCode c) {
  switch (c) {
    case ErrCode::kBackpressure: return "BACKPRESSURE";
    case ErrCode::kMalformed: return "MALFORMED";
    case ErrCode::kOversized: return "OVERSIZED";
    case ErrCode::kShuttingDown: return "SHUTTING_DOWN";
    case ErrCode::kDispatchFailed: return "DISPATCH_FAILED";
    case ErrCode::kBadVersion: return "BAD_VERSION";
    case ErrCode::kBadCrc: return "BAD_CRC";
    case ErrCode::kUnknownType: return "UNKNOWN_TYPE";
  }
  return "UNKNOWN";
}

}  // namespace cham::net
