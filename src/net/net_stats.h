// Socket front-end counters, emitted beside ServeStats.
//
// ServeStats describes what the serving runtime does with admitted work;
// NetStats describes the wire in front of it — connections, frame and byte
// traffic by direction, protocol errors answered with typed frames, and the
// flow-control behaviour of the bounded per-connection write queues.
//
// Deliberately plain (non-atomic) fields, same policy as ServeStats: every
// instance is either a returned snapshot (thread-local) or lives behind
// NetServer's stats mutex (CHAM_GUARDED_BY(stats_mu_)); counters behind a
// mutex need no atomics (memory-ordering policy, util/sync.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "util/json.h"

namespace cham::net {

struct NetStats {
  // Connections.
  int64_t connections_accepted = 0;
  int64_t connections_closed = 0;
  int64_t connections_high_water = 0;

  // Frame traffic (counts complete protocol frames, both directions).
  int64_t frames_in = 0;
  int64_t frames_out = 0;
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;

  // Requests decoded and handed to the serving runtime.
  int64_t observes_in = 0;
  int64_t predicts_in = 0;       // PREDICT frames + PREDICT_BATCH pages
  int64_t predict_batches_in = 0;
  int64_t flushes_in = 0;
  int64_t stats_in = 0;
  int64_t shutdowns_in = 0;

  // Replies.
  int64_t predict_replies = 0;
  int64_t observe_acks = 0;

  // Typed error replies, by cause.
  int64_t err_backpressure = 0;  // admission rejected; retry_after_ms relayed
  int64_t err_malformed = 0;     // bad magic or undecodable payload
  int64_t err_bad_version = 0;
  int64_t err_bad_crc = 0;
  int64_t err_oversized = 0;     // payload over the ceiling, or a
                                 // PREDICT_BATCH with more pages than a
                                 // shard queue holds
  int64_t err_dispatch = 0;      // learner threw; exception relayed as ERROR
  int64_t err_shutting_down = 0;
  int64_t err_unknown_type = 0;  // well-framed request with an unknown type

  // Flow control on the bounded write queues: how often a connection's
  // reader was paused because its outbox hit the byte bound, and the
  // fullest any outbox ever got.
  int64_t write_stalls = 0;
  int64_t outbox_high_water_bytes = 0;

  void note_outbox_bytes(int64_t bytes) {
    outbox_high_water_bytes = std::max(outbox_high_water_bytes, bytes);
  }

  std::string to_json() const {
    util::JsonWriter j;
    j.field("connections_accepted", connections_accepted);
    j.field("connections_closed", connections_closed);
    j.field("connections_high_water", connections_high_water);
    j.field("frames_in", frames_in);
    j.field("frames_out", frames_out);
    j.field("bytes_in", bytes_in);
    j.field("bytes_out", bytes_out);
    j.field("observes_in", observes_in);
    j.field("predicts_in", predicts_in);
    j.field("predict_batches_in", predict_batches_in);
    j.field("flushes_in", flushes_in);
    j.field("stats_in", stats_in);
    j.field("shutdowns_in", shutdowns_in);
    j.field("predict_replies", predict_replies);
    j.field("observe_acks", observe_acks);
    j.field("err_backpressure", err_backpressure);
    j.field("err_malformed", err_malformed);
    j.field("err_bad_version", err_bad_version);
    j.field("err_bad_crc", err_bad_crc);
    j.field("err_oversized", err_oversized);
    j.field("err_dispatch", err_dispatch);
    j.field("err_shutting_down", err_shutting_down);
    j.field("err_unknown_type", err_unknown_type);
    j.field("write_stalls", write_stalls);
    j.field("outbox_high_water_bytes", outbox_high_water_bytes);
    return j.str();
  }
};

}  // namespace cham::net
