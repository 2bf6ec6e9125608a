// The serving stack under test and the shared plumbing of both run kinds:
// Experiment (frozen backbone, latent cache, served head) -> threaded
// SessionManager (two shards) -> NetServer on a Unix socket -> WireLoad.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/chameleon.h"
#include "loadgen.h"
#include "metrics/experiment.h"
#include "net/server.h"
#include "serve/session_manager.h"
#include "workload.h"

namespace perfbench {

namespace core = cham::core;
namespace metrics = cham::metrics;
namespace net = cham::net;
namespace serve = cham::serve;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir = ".bench_build/work";
  bool prepare = false;  // build the pretrain cache and exit
};

constexpr int kConnections = 2;
constexpr int64_t kShards = 2;
constexpr uint64_t kBaseSeed = 97;
// Threads for set-up pre-population and the correctness replay; the tensor
// pool runs at 1 thread throughout, as threaded serving forces.
constexpr int kSetupThreads = 4;
// Length of the traced run's closed-loop saturation phase, in seconds.
constexpr double kSatSeconds = 4.0;

metrics::ExperimentConfig served_experiment(const std::string& work_dir);
core::ChameleonConfig learner_config();
serve::ServeConfig serve_config(const WorkloadSpec& w, serve::ServeMode mode,
                                const std::string& store_dir);
std::unique_ptr<core::ChameleonLearner> make_learner(
    metrics::Experiment& exp, uint64_t seed);

// Member order is teardown order reversed: the client goes first, then the
// server, the manager (which flushes every session) and the backbone.
struct Stack {
  std::unique_ptr<metrics::Experiment> exp;
  std::unique_ptr<serve::SessionManager> mgr;
  std::unique_ptr<net::NetServer> server;
  std::unique_ptr<WireLoad> load;
  PhaseResult warmup;  // the set-up requests, part of every session's order

  void reset() {
    load.reset();
    server.reset();
    mgr.reset();
    exp.reset();
  }
};

// Writes every session's pre-population (Inputs::prepop) into the store at
// `dir` as a full blob plus an op-log delta, learners running on
// kSetupThreads threads.
void prepopulate_store(metrics::Experiment& exp, const WorkloadSpec& w,
                       const Inputs& in, const std::string& dir);

// Builds and warms the stack (the part setup_s times): backbone from the
// pretrain cache, latent cache fill, store pre-population, manager +
// server, then the warm-up requests over the wire (first observes and
// test-key predicts). The store directory is cleared first.
void build_stack(Stack& st, const WorkloadSpec& w, const Inputs& in,
                 const Args& a);

std::string store_dir(const Args& a);
std::string socket_path(const Args& a);

// One request as the server executed it, in its session's order; `rec` is
// null for store pre-population (run in-process by set-up, no wire reply).
struct Executed {
  const Op* op;
  const Record* rec;
};

// Every session's executed requests, in order, plus observe-ack accounting.
struct ExecutionLog {
  std::vector<std::vector<Executed>> order;  // per session
  int64_t observes_sent = 0;
  int64_t observes_acked = 0;

  explicit ExecutionLog(const Inputs& in);  // starts with the pre-population
  // Appends the released requests of one phase (answered OK).
  void add(const std::vector<Op>& ops, const PhaseResult& r);
};

struct CheckResult {
  int64_t mismatches = 0;
  int64_t predicts_checked = 0;
  int64_t probes_checked = 0;
};

// Replays every session's executed requests through an isolated learner
// (seeded like the manager's) on kSetupThreads threads and compares each
// wire predict reply bit for bit. Probe sessions (the hottest, two mid
// ranks, the coldest with traffic) are also restored from the flushed store
// at `dir` and compared with the isolated learner's final state.
CheckResult check_against_isolated(metrics::Experiment& exp,
                                   const Inputs& in, const ExecutionLog& log,
                                   const std::string& dir);

void print_phase(const char* name, const PhaseResult& r);

// The result line: the last line a run prints on stdout.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
};
void print_result(const RunResult& r);

inline int64_t executed_events(const serve::ServeStats& s) {
  return s.observes + s.predicts;
}
double ms_between(double from_s, double to_s);
double peak_rss_mib();
// User + system CPU seconds of the whole process (server and client).
double process_cpu_s();

int run_untraced(const WorkloadSpec& w, const Args& a);
int run_traced(const WorkloadSpec& w, const Args& a);

}  // namespace perfbench
