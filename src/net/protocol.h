// Binary wire protocol for the serving runtime's socket front-end.
//
// The serving runtime batches observe/predict traffic across sessions
// in-process (serve/batch_planner.h); this protocol is how that traffic
// arrives from OUTSIDE the process — an edge gateway's client devices, or
// the distributed-learner actor pattern (one learner process, many actor
// connections), each speaking length-prefixed binary frames over a
// Unix-domain or TCP socket.
//
// Frame layout (little-endian, 32-byte header + payload):
//
//   offset  size  field
//        0     4  magic        0x4D414843 ("CHAM")
//        4     2  version      kWireVersion (1)
//        6     2  type         MsgType
//        8     8  session_id   which per-user learner this frame targets
//       16     8  request_id   caller-chosen; echoed verbatim in the reply
//       24     4  payload_len  bytes following the header
//       28     4  payload_crc  CRC-32 of the payload (0 when empty)
//
// Request types carry the serving API: OBSERVE (one training batch),
// PREDICT (one key list), PREDICT_BATCH (several key lists submitted as
// pipelined predicts — the shape the BatchPlanner merges into one eval
// window), FLUSH (drain + evict everything to the store), STATS (JSON
// snapshot of ServeStats + NetStats), SHUTDOWN (graceful server stop).
// Every request gets exactly one reply frame echoing session_id/request_id:
// the matching *_OK / *_RESULT type, or ERROR with a typed code — including
// BACKPRESSURE, which carries the admission layer's retry_after_ms hint so
// remote callers back off exactly like in-process ones.
//
// Delivery contract: replies leave in completion order. On one
// connection, replies to the same session's PREDICT/PREDICT_BATCH requests
// arrive in submission order, and FLUSH_OK arrives after the replies to
// every predict sent before the FLUSH. Replies to different sessions'
// predicts, admission acks and errors may overtake one another, so clients
// match on request_id, never on arrival order.
//
// The codec is allocation-free in steady state: encoders append to a
// caller-owned buffer that keeps its capacity across frames, decoders fill
// caller-owned structures whose vectors are resized, not reallocated, once
// warm. bench_net gates this (zero heap allocations per encode/decode
// round-trip after warm-up).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/stream.h"

namespace cham::net {

// Shared by NetServer and NetClient: which socket family the endpoint uses.
// Both transports speak the identical framing; kUnix is the edge-device
// default (co-located gateway), kTcp the cross-host option.
enum class Transport {
  kUnix,  // AF_UNIX stream socket at a filesystem path
  kTcp,   // 127.0.0.1:<port> (port 0 = ephemeral server-side)
};

inline constexpr uint32_t kWireMagic = 0x4D414843u;  // "CHAM"
inline constexpr uint16_t kWireVersion = 1;
inline constexpr std::size_t kHeaderBytes = 32;
// Server-side default ceiling on payload_len; anything larger is rejected
// with ErrCode::kOversized before any payload is buffered.
inline constexpr uint32_t kDefaultMaxPayload = 1u << 20;

enum class MsgType : uint16_t {
  // Requests.
  kObserve = 1,
  kPredict = 2,
  kPredictBatch = 3,
  kFlush = 4,
  kStats = 5,
  kShutdown = 6,
  // Replies.
  kObserveOk = 17,
  kPredictResult = 18,
  kPredictBatchResult = 19,
  kFlushOk = 20,
  kStatsResult = 21,
  kShutdownOk = 22,
  kError = 31,
};

// Typed error codes carried by kError frames.
enum class ErrCode : uint16_t {
  kBackpressure = 1,   // shard queue full; retry_after_ms is the EWMA hint
  kMalformed = 2,      // payload failed to decode
  kOversized = 3,      // payload_len above the server's ceiling
  kShuttingDown = 4,   // server is draining; connection closes after this
  kDispatchFailed = 5, // learner threw during execution
  kBadVersion = 6,     // header version != kWireVersion
  kBadCrc = 7,         // payload CRC mismatch
  kUnknownType = 8,    // request type the server does not speak
};

struct FrameHeader {
  uint32_t magic = kWireMagic;
  uint16_t version = kWireVersion;
  MsgType type = MsgType::kError;
  uint64_t session_id = 0;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
};

// Decoded kError payload.
struct ErrorInfo {
  ErrCode code = ErrCode::kMalformed;
  int64_t retry_after_ms = 0;
  std::string message;
};

// Reusable frame buffer: encoders append whole frames, the I/O layer writes
// and clears it. Capacity survives clear(), which is what makes the codec
// allocation-free once warm.
using WireBuf = std::vector<uint8_t>;

// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `n` bytes.
uint32_t crc32(const uint8_t* p, std::size_t n);

// --- Encoders: append one complete frame (header + payload) to `out`. ----
void encode_observe(WireBuf& out, uint64_t session_id, uint64_t request_id,
                    const data::Batch& batch);
void encode_observe_ok(WireBuf& out, uint64_t session_id, uint64_t request_id,
                       int64_t queue_depth);
void encode_predict(WireBuf& out, uint64_t session_id, uint64_t request_id,
                    const std::vector<data::ImageKey>& keys);
void encode_predict_result(WireBuf& out, uint64_t session_id,
                           uint64_t request_id,
                           const std::vector<int64_t>& preds);
void encode_predict_batch(WireBuf& out, uint64_t session_id,
                          uint64_t request_id,
                          const std::vector<std::vector<data::ImageKey>>& pages);
void encode_predict_batch_result(
    WireBuf& out, uint64_t session_id, uint64_t request_id,
    const std::vector<std::vector<int64_t>>& pages);
// Empty-payload control frames (FLUSH / STATS / SHUTDOWN and their acks).
void encode_control(WireBuf& out, MsgType type, uint64_t session_id,
                    uint64_t request_id);
// kStatsResult: payload is the JSON snapshot verbatim.
void encode_stats_result(WireBuf& out, uint64_t request_id,
                         const std::string& json);
void encode_error(WireBuf& out, uint64_t session_id, uint64_t request_id,
                  ErrCode code, int64_t retry_after_ms,
                  const std::string& message);

// --- Decoders. -----------------------------------------------------------
// Reads a header from `p` (needs n >= kHeaderBytes; returns false
// otherwise). Does NOT validate magic/version — header_error does, so the
// server can answer a bad-version frame instead of dropping it.
bool read_header(const uint8_t* p, std::size_t n, FrameHeader& h);

// Structural validation of a parsed header against a payload ceiling.
// Returns 0 when acceptable, else the ErrCode to reply with. A bad magic is
// unrecoverable (the stream cannot be re-synchronised) and maps to
// kMalformed; callers should close the connection after replying.
ErrCode header_error(const FrameHeader& h, uint32_t max_payload);
inline constexpr ErrCode kHeaderOk = static_cast<ErrCode>(0);

// Payload decoders: `p/n` is the payload only (header already consumed).
// Return false on malformed input; outputs are resized, reusing capacity.
bool decode_observe(const uint8_t* p, std::size_t n, data::Batch& out);
bool decode_observe_ok(const uint8_t* p, std::size_t n, int64_t& queue_depth);
bool decode_predict(const uint8_t* p, std::size_t n,
                    std::vector<data::ImageKey>& out);
bool decode_predict_result(const uint8_t* p, std::size_t n,
                           std::vector<int64_t>& out);
bool decode_predict_batch(const uint8_t* p, std::size_t n,
                          std::vector<std::vector<data::ImageKey>>& pages);
bool decode_predict_batch_result(const uint8_t* p, std::size_t n,
                                 std::vector<std::vector<int64_t>>& pages);
bool decode_error(const uint8_t* p, std::size_t n, ErrorInfo& out);

const char* msg_type_name(MsgType t);
const char* err_code_name(ErrCode c);

}  // namespace cham::net
