#include "stack.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "core/checkpoint.h"
#include "serve/session_store.h"

namespace perfbench {

metrics::ExperimentConfig served_experiment(const std::string& work_dir) {
  // bench_serve / bench_net's served model: the same pool, pretraining and
  // learning rate, so the per-layer numbers compose with theirs.
  metrics::ExperimentConfig cfg = metrics::core50_experiment();
  cfg.data = served_dataset();
  cfg.pretrain_num_classes = 12;
  cfg.pretrain_epochs = 4;
  cfg.learner_lr = 0.02f;
  cfg.cache_dir = work_dir;
  return cfg;
}

core::ChameleonConfig learner_config() {
  core::ChameleonConfig cc;
  cc.lt_capacity = 18;
  return cc;
}

serve::ServeConfig serve_config(const WorkloadSpec& w, serve::ServeMode mode,
                                const std::string& dir) {
  serve::ServeConfig sc;
  sc.num_shards = kShards;
  sc.max_resident = w.max_resident;
  sc.snapshot_cache_bytes = w.snapshot_cache_bytes;
  sc.base_seed = kBaseSeed;
  sc.mode = mode;
  sc.store_dir = dir;
  return sc;
}

std::unique_ptr<core::ChameleonLearner> make_learner(metrics::Experiment& exp,
                                                     uint64_t seed) {
  return std::make_unique<core::ChameleonLearner>(exp.env(), learner_config(),
                                                  seed);
}

std::string store_dir(const Args& a) {
  return a.work_dir + "/store-" + a.workload;
}

std::string socket_path(const Args& a) {
  return a.work_dir + "/" + a.workload + ".sock";
}

void prepopulate_store(metrics::Experiment& exp, const WorkloadSpec& w,
                       const Inputs& in, const std::string& dir) {
  if (in.prepop.empty()) return;
  serve::SessionStore store(dir);
  const std::size_t block = in.prepop.size() / in.streams.size();
  std::atomic<int64_t> next{0};
  std::atomic<bool> ok{true};
  auto worker = [&] {
    for (int64_t s = next++; s < w.sessions; s = next++) {
      const Op* ops = &in.prepop[static_cast<size_t>(s) * block];
      auto learner = make_learner(exp, cham::split_seed(kBaseSeed, s));
      auto snapshot = [&learner, &ok] {
        core::ByteBuf blob;
        core::ByteBufWriter os(blob);
        if (!learner->save_state(os)) ok = false;
        return blob;
      };
      std::size_t i = 0;
      for (; i < static_cast<size_t>(kWarmObserves); ++i) {
        learner->observe(in.batch(ops[i]));
      }
      const core::ByteBuf base = snapshot();
      std::vector<cham::data::ServeOp> log;
      for (; i < block; ++i) {
        cham::data::ServeOp op;
        op.predict = ops[i].kind == Kind::kPredict;
        if (op.predict) {
          op.keys = ops[i].keys;
          (void)learner->predict(op.keys);
        } else {
          op.batch = in.batch(ops[i]);
          learner->observe(op.batch);
        }
        log.push_back(std::move(op));
      }
      const core::ByteBuf next_blob = snapshot();
      core::DeltaHeader h;
      h.kind = core::DeltaKind::kOpLog;
      h.base_hash = core::blob_hash(base.data(), base.size());
      h.base_len = base.size();
      h.next_hash = core::blob_hash(next_blob.data(), next_blob.size());
      h.next_len = next_blob.size();
      const core::ByteBuf frame = core::encode_op_log(h, log);
      const auto id = static_cast<uint64_t>(s);
      if (!store.put_full(id, base.data(), base.size()) ||
          !store.put_delta(id, frame.data(), frame.size())) {
        ok = false;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kSetupThreads; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  if (!ok) throw std::runtime_error("set-up: store pre-population failed");
}

void build_stack(Stack& st, const WorkloadSpec& w, const Inputs& in,
                 const Args& a) {
  st.exp = std::make_unique<metrics::Experiment>(served_experiment(a.work_dir));
  // Latent cache fill: every distinct key the streams use, plus the test set.
  cham::data::Batch pool;
  std::unordered_set<uint64_t> seen;
  for (const auto& stream : in.streams) {
    for (const auto& b : stream) {
      for (const auto& k : b.keys) {
        if (seen.insert(k.packed()).second) pool.keys.push_back(k);
      }
    }
  }
  st.exp->warm_latents(std::vector<cham::data::Batch>{pool});

  const std::string dir = store_dir(a);
  serve::SessionStore(dir).clear();
  prepopulate_store(*st.exp, w, in, dir);
  metrics::Experiment* exp = st.exp.get();
  st.mgr = std::make_unique<serve::SessionManager>(
      serve_config(w, serve::ServeMode::kThreaded, dir),
      [exp](uint64_t, uint64_t seed) { return make_learner(*exp, seed); });
  net::NetConfig nc;
  nc.unix_path = socket_path(a);
  st.server = std::make_unique<net::NetServer>(*st.mgr, nc);
  st.load = std::make_unique<WireLoad>(nc.unix_path, kConnections);

  PhaseOptions opt;
  opt.open_loop = false;
  opt.window = w.sat_window;
  opt.release_seconds = 1e9;  // release the whole list
  st.warmup = st.load->run(in.warmup, in, opt);
  if (st.warmup.failed != 0) {
    throw std::runtime_error("set-up: " + std::to_string(st.warmup.failed) +
                             " warm-up requests failed");
  }
  st.mgr->drain();
}

ExecutionLog::ExecutionLog(const Inputs& in) : order(in.streams.size()) {
  for (const Op& op : in.prepop) {
    order[static_cast<size_t>(op.session)].push_back({&op, nullptr});
  }
}

void ExecutionLog::add(const std::vector<Op>& ops, const PhaseResult& r) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Record& rec = r.records[i];
    if (!rec.released) continue;
    if (ops[i].kind == Kind::kObserve) {
      ++observes_sent;
      observes_acked += rec.ok;
    }
    if (rec.ok) {
      order[static_cast<size_t>(ops[i].session)].push_back({&ops[i], &rec});
    }
  }
}

namespace {

bool params_bit_identical(core::ChameleonLearner& a,
                          core::ChameleonLearner& b) {
  auto pa = a.head().params();
  auto pb = b.head().params();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (pa[i]->value.numel() != pb[i]->value.numel() ||
        std::memcmp(pa[i]->value.data(), pb[i]->value.data(),
                    static_cast<std::size_t>(pa[i]->value.numel()) *
                        sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

CheckResult check_against_isolated(metrics::Experiment& exp,
                                   const Inputs& in, const ExecutionLog& log,
                                   const std::string& dir) {
  const auto& order = log.order;
  const auto test_keys = cham::data::all_test_keys(in.data);
  std::vector<int64_t> sessions;
  for (std::size_t s = 0; s < order.size(); ++s) {
    if (!order[s].empty()) sessions.push_back(static_cast<int64_t>(s));
  }
  std::vector<int64_t> probes;
  if (!sessions.empty()) {
    const auto n = static_cast<int64_t>(order.size());
    probes = {0, n / 4, n / 2, sessions.back()};
  }
  // Longest first, so the threads finish together.
  std::sort(sessions.begin(), sessions.end(), [&](int64_t x, int64_t y) {
    return order[static_cast<size_t>(x)].size() >
           order[static_cast<size_t>(y)].size();
  });
  std::atomic<std::size_t> next{0};
  std::atomic<int64_t> mismatches{0}, checked{0}, probed{0};
  serve::SessionStore reader(dir);
  auto worker = [&] {
    for (std::size_t k = next++; k < sessions.size(); k = next++) {
      const int64_t s = sessions[k];
      auto learner = make_learner(exp, cham::split_seed(kBaseSeed, s));
      for (const Executed& e : order[static_cast<size_t>(s)]) {
        if (e.op->kind == Kind::kObserve) {
          learner->observe(in.batch(*e.op));
        } else if (e.rec == nullptr) {
          (void)learner->predict(e.op->keys);
        } else {
          ++checked;
          if (learner->predict(e.op->keys) != e.rec->preds) ++mismatches;
        }
      }
      if (std::find(probes.begin(), probes.end(), s) == probes.end()) continue;
      auto restored = make_learner(exp, 0xBEEF);
      ++probed;
      if (!reader.load(static_cast<uint64_t>(s), *restored) ||
          !params_bit_identical(*restored, *learner) ||
          restored->predict(test_keys) != learner->predict(test_keys)) {
        std::printf("  MISMATCH: session %lld restored from the store\n",
                    static_cast<long long>(s));
        ++mismatches;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kSetupThreads; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  return {mismatches.load(), checked.load(), probed.load()};
}

void print_phase(const char* name, const PhaseResult& r) {
  std::printf("  %-7s released %lld, sent %lld, ok %lld, rejected %lld, "
              "failed %lld, %.2f s\n",
              name, static_cast<long long>(r.released),
              static_cast<long long>(r.sent), static_cast<long long>(r.ok),
              static_cast<long long>(r.rejected),
              static_cast<long long>(r.failed), r.wall_s);
}

void print_result(const RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double ms_between(double from_s, double to_s) {
  return (to_s - from_s) * 1000.0;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
