// Full learner-state checkpointing for on-device deployment and serving.
//
// A power-cycled edge device must resume continual learning without losing
// what its replay stores protect, and the multi-session serving runtime
// (src/serve/) evicts cold sessions to disk and restores them on the next
// request. Both paths need the SAME property: a restored learner continues
// the stream bit-identically to one that was never interrupted. A checkpoint
// therefore carries everything that influences future behaviour: the head
// parameters (the backbone is a fixed artifact of the firmware image), the
// short-term and long-term store contents, the preference statistics
// including mid-window counters, the staged LT replay burst and its cursor,
// the RNG state, the step counter and the traffic ledger.
//
// Two wire formats live here:
//
//   CHS2 v7 (full blob)   The complete state, as ChameleonLearner::
//                         save_state / load_state. The header carries the
//                         hash of the pretrained head template the session
//                         was cloned from (LearnerEnv::template_hash), and
//                         a blob loads only into a learner of the same
//                         template. Each head tensor is stored as the
//                         byte-mask encoding of its bytes XOR the
//                         template's (nn::save_params_relative,
//                         tensor/byte_mask.h): lossless, and a quarter
//                         smaller than raw floats for the served model's
//                         trained sessions (1.53 MB against 2.03 MB). Both
//                         replay memories are slot-store frames
//                         (replay/serialize.h): the ST one, the LT one per
//                         class. Latent payloads carry a quant::Precision
//                         tag byte, always kFp32: blobs round-trip
//                         bit-exactly, and a blob tagged with any other
//                         precision is rejected on load.
//   CHS3 v2 (delta frame) An op log against a previously flushed full blob:
//                         the observe/predict requests the session served
//                         since the base blob was captured, each a u8 kind
//                         followed by the wire protocol's OBSERVE batch or
//                         PREDICT key-list payload (the one codec in
//                         data/stream.h). Restore replays them through the
//                         learner; the repo-wide bit-determinism contract
//                         makes the result byte-identical to the state that
//                         was evicted, and the frame's hashes of the base
//                         and target blobs verify both ends, so a mismatched
//                         or stale delta is detected, never silently
//                         applied.
//
// Both formats are written with util/bytes.h's put_* into a ByteBuf and
// read through its bounds-latched util::Reader, the codec the wire protocol
// uses. The CHS2 serialisation itself lives on the learner
// (core/chameleon.h); a device reboot or the serving runtime's
// SessionStore/WriteBehind stores the ByteBuf it fills.
#pragma once

#include <cstdint>
#include <vector>

#include "core/chameleon.h"
#include "data/stream.h"
#include "tensor/workspace.h"

namespace cham::core {

// The perfbench harness spells a blob's writer and reader with these two
// names (`ByteBufWriter os(buf); save_state(os)`, `ByteBufReader is(p, n);
// load_state(is)`); nothing else uses them.
using ByteBufWriter = ByteBuf&;
using ByteBufReader = util::Reader;

// --------------------------------------------------------- CHS3 deltas

enum class DeltaKind : uint8_t {
  // Value 0 was a chunk-diff frame kind; it is retired, and readers reject
  // it like any other malformed frame.
  kOpLog = 1,  // serve requests to replay on top of base
};

struct DeltaHeader {
  DeltaKind kind = DeltaKind::kOpLog;
  uint64_t base_hash = 0;  // FNV-1a of the full base blob
  uint64_t base_len = 0;
  uint64_t next_hash = 0;  // FNV-1a of the full blob this delta reconstructs
  uint64_t next_len = 0;
};

// FNV-1a 64 over a byte range (the hash used by the delta frames).
uint64_t blob_hash(const char* data, std::size_t n);

// True if the bytes start with the CHS3 delta magic (vs a full CHS2 blob).
bool is_delta_blob(const char* data, std::size_t n);

// Reads the frame header; false on malformed input or any kind but kOpLog.
bool read_delta_header(const char* data, std::size_t n, DeltaHeader& out);

// kOpLog: frames the serve requests executed between the base blob and the
// state described by (next_hash, next_len). Replay + verification is the
// reader's job (serve::SessionStore::load; see read_op_log). Layout after
// the header: a u32 op count, then per op a u8 kind (0 observe, 1 predict)
// and the op's data::put_batch / data::put_keys bytes.
ByteBuf encode_op_log(const DeltaHeader& header,
                      const std::vector<data::ServeOp>& ops);

// Extracts the replay ops from a kOpLog frame. False on malformed input,
// including bytes left over after the last op.
bool read_op_log(const char* delta, std::size_t delta_n,
                 std::vector<data::ServeOp>& out);

}  // namespace cham::core
