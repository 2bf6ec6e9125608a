// Workload definitions, seeded request schedules and the percentile rule of
// the end-to-end serving benchmark.
//
// A workload is one traffic mix against the socket front-end: a session
// population with a Zipf popularity, an observe/predict mix, a predict page
// size, an open-loop Poisson rate and a latency limit. Everything a run sends
// is drawn from (workload, --seed): the per-session training streams, the
// arrival times, which session each request belongs to, its kind and its
// predict keys. The server only ever sees the generated frames.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/stream.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  int64_t sessions = 0;         // population (session ids 0..sessions-1)
  double zipf_s = 0;            // popularity exponent over session rank
  double predict_frac = 0;      // exact share of predicts in a schedule
  int64_t page_min = 1;         // keys per predict, drawn uniformly
  int64_t page_max = 1;         //   from [page_min, page_max]
  double rate_per_s = 0;        // open-loop Poisson arrival rate
  double slo_ms = 0;            // latency limit of slo_attain_frac
  // Serving configuration (two shards, threaded, behind a NetServer).
  int64_t max_resident = 8;
  int64_t snapshot_cache_bytes = int64_t{128} << 20;
  // Closed-loop saturation phase: requests kept in flight per connection.
  int64_t sat_window = 8;
  // > 0: set-up writes every session straight into the store — a full blob
  // after its warm-up observes plus an op-log delta of this many further
  // observes and one predict. That is the on-disk state a server leaves
  // when it stops without compacting (a crash or a kill), so the measured
  // phase restores from disk and replays op logs instead of creating
  // sessions.
  int64_t prepop_delta_observes = 0;
};

const std::vector<WorkloadSpec>& workloads();
// nullptr when no workload has that name.
const WorkloadSpec* find_workload(const std::string& name);

// Observes every session trains on during set-up, before measurement.
constexpr int64_t kWarmObserves = 1;

enum class Kind : uint8_t { kObserve, kPredict };

// One request of a schedule. Observes name the position in the session's
// private stream; predicts carry their keys.
struct Op {
  int64_t session = 0;
  Kind kind = Kind::kObserve;
  int64_t batch = 0;                 // observe: stream position (cycled)
  std::vector<cham::data::ImageKey> keys;  // predict keys
  double due_s = 0;                  // open loop: due time from phase start
};

// The generated inputs of one run: dataset, per-session streams and the
// request lists in the order a session sees them: store pre-population
// (executed in-process by set-up), set-up warm-up, open-loop phase and
// closed-loop phase.
struct Inputs {
  cham::data::DatasetConfig data;
  std::vector<std::vector<cham::data::Batch>> streams;  // per session
  // Pre-population, one block per session in session order: kWarmObserves
  // observes (the full blob), then the op-log delta's observes and predict.
  std::vector<Op> prepop;
  std::vector<Op> warmup;
  std::vector<Op> open_loop;
  std::vector<Op> closed_loop;

  const cham::data::Batch& batch(const Op& op) const {
    const auto& s = streams[static_cast<size_t>(op.session)];
    return s[static_cast<size_t>(op.batch) % s.size()];
  }
};

// The served dataset: the small CORe50-shaped pool of bench_serve and
// bench_net (6 classes, 2 domains), so the head is the served model.
cham::data::DatasetConfig served_dataset();

// Builds every input of a run. open_seconds sets the open-loop request
// count (rate x seconds, exact); closed_count the closed-loop list length
// (the phase is time-bounded and uses a prefix).
Inputs make_inputs(const WorkloadSpec& w, uint64_t seed, double open_seconds,
                   int64_t closed_count);

// --- Percentiles ---------------------------------------------------------
// Nearest-rank percentile q in (0, 1). Fails loudly (throws
// std::runtime_error) unless at least 10 samples lie beyond it: a tail is
// only reported when enough samples back it.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
// The highest of p99 / p95 / p90 that n samples support under the rule
// above; throws when even p90 is not supported (n < 100).
double tail_quantile(std::size_t n);
// Latency statistic robust to transient machine noise: `v` (in time order)
// is cut into equal consecutive windows — as many as leave every window
// >= 100 samples, at most 5 — and the median of the windows' q-percentiles
// is returned. A stall that hits one window moves one window's value, not
// the result. Each window's percentile obeys the rule above.
double windowed_percentile(const std::vector<double>& v, double q);

}  // namespace perfbench
