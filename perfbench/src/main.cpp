// End-to-end serving benchmark: entry point and the untraced run.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//   perfbench --prepare [--work-dir DIR]    build the pretrain cache only
//
// --trace 0 (untraced): set-up five times (setup_s is the median CPU time), an
// open-loop Poisson phase of --seconds over the socket, a final flush, then
// the correctness check; prints the end-to-end metrics.
// --trace 1 (traced): the per-layer numbers; see traced.cpp.
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics ({name: {value, unit}}).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "stack.h"
#include "tensor/thread_pool.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 5;
// Generator lateness bound: a run whose tail send delay (past the moment a
// request was due and its session order allowed it) exceeds this measured
// the generator, not the server, and is invalid.
constexpr double kLatenessBoundMs = 50.0;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int run_untraced(const WorkloadSpec& w, const Args& a) {
  const Inputs in = make_inputs(w, a.seed, a.seconds, 0);

  // --- Set-up, several times; the last stack is the one measured. -------
  // setup_s is the CPU time of a set-up (every thread: backbone load,
  // latent fill, pre-population, warm-up dispatch). Its wall time drifted
  // 25-60% between two 10-run sets on a shared VM, CPU time a few percent.
  Stack st;
  std::vector<double> setup_cpu_s, setup_wall_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    st.reset();  // tear the previous stack down (untimed)
    const auto t0 = Clock::now();
    const double c0 = process_cpu_s();
    build_stack(st, w, in, a);
    setup_cpu_s.push_back(process_cpu_s() - c0);
    setup_wall_s.push_back(seconds_since(t0));
  }
  serve::SessionManager& mgr = *st.mgr;

  // --- Open-loop phase, then the final flush. ---------------------------
  const serve::ServeStats s0 = mgr.stats();
  const int64_t bytes0 = mgr.store().bytes_written();
  const double cpu0 = process_cpu_s();
  PhaseOptions opt;
  opt.open_loop = true;
  const PhaseResult open = st.load->run(in.open_loop, in, opt);
  mgr.drain();
  const double cpu_s = process_cpu_s() - cpu0;
  const int64_t events = executed_events(mgr.stats()) - executed_events(s0);
  mgr.flush();  // persisting every session is part of the store traffic
  const int64_t bytes1 = mgr.store().bytes_written();
  const serve::ServeStats s1 = mgr.stats();
  const double rss_mib = peak_rss_mib();

  // --- Latencies, from due time to reply (reported, not gated). ---------
  std::vector<double> obs_ms, pred_ms, late_ms;
  int64_t slo_ok = 0;
  for (std::size_t i = 0; i < in.open_loop.size(); ++i) {
    const Record& r = open.records[i];
    if (r.first_send_s >= 0) {
      late_ms.push_back(ms_between(r.ready_s, r.first_send_s));
    }
    if (!r.ok) continue;
    const double ms = ms_between(r.due_s, r.reply_s);
    (in.open_loop[i].kind == Kind::kObserve ? obs_ms : pred_ms).push_back(ms);
    if (ms <= w.slo_ms) ++slo_ok;
  }
  const double late_q = tail_quantile(late_ms.size());
  const double lateness = percentile(late_ms, late_q);
  const double obs_q = tail_quantile(obs_ms.size());
  const double pred_q = tail_quantile(pred_ms.size());

  // --- Correctness. -----------------------------------------------------
  ExecutionLog log(in);
  log.add(in.warmup, st.warmup);
  log.add(in.open_loop, open);
  st.load.reset();
  st.server->stop();
  const CheckResult check =
      check_against_isolated(*st.exp, in, log, store_dir(a));
  const bool correct = check.mismatches == 0 &&
                       log.observes_acked == log.observes_sent &&
                       open.failed == 0;

  std::printf("perfbench %s seed %llu: %zu sessions, open loop %.0f/s for "
              "%.1f s\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              in.streams.size(), w.rate_per_s, a.seconds);
  std::printf("  set-up (median of %d): %.3f s CPU, %.3f s wall\n",
              kSetupReps, median(setup_cpu_s), median(setup_wall_s));
  print_phase("warmup", st.warmup);
  print_phase("open", open);
  std::printf("  latency (not gated): observe p50 %.3f / p%.0f %.3f ms over "
              "%zu, predict p50 %.3f / p%.0f %.3f ms over %zu; generator "
              "lateness p%.0f %.3f ms (bound %.0f)\n",
              windowed_percentile(obs_ms, 0.5), obs_q * 100,
              percentile(obs_ms, obs_q), obs_ms.size(),
              windowed_percentile(pred_ms, 0.5), pred_q * 100,
              percentile(pred_ms, pred_q), pred_ms.size(), late_q * 100,
              lateness, kLatenessBoundMs);
  std::printf("  correctness: %lld/%lld observes acked, %lld predicts and %lld "
              "restored sessions checked bit for bit, %lld mismatches\n",
              static_cast<long long>(log.observes_acked),
              static_cast<long long>(log.observes_sent),
              static_cast<long long>(check.predicts_checked),
              static_cast<long long>(check.probes_checked),
              static_cast<long long>(check.mismatches));
  std::printf("  serve: evictions %lld, restores %lld (disk %lld), rejections "
              "%lld, executed %lld\n",
              static_cast<long long>(s1.evictions - s0.evictions),
              static_cast<long long>(s1.restores - s0.restores),
              static_cast<long long>(s1.disk_restores - s0.disk_restores),
              static_cast<long long>(s1.rejections - s0.rejections),
              static_cast<long long>(events));
  if (lateness > kLatenessBoundMs) {
    std::fprintf(stderr,
                 "perfbench: run invalid: generator lateness %.3f ms exceeds "
                 "the %.0f ms bound\n",
                 lateness, kLatenessBoundMs);
    return 3;
  }

  RunResult res;
  res.correct = correct;
  res.attempted = open.released;
  res.failed = open.failed;
  const auto per_event = [events](double v) {
    return v / static_cast<double>(events);
  };
  res.metrics = {
      {"setup_s", median(setup_cpu_s), "s"},
      {"cpu_ms_per_event", per_event(cpu_s * 1000.0), "ms"},
      {"slo_attain_frac",
       static_cast<double>(slo_ok) / static_cast<double>(open.released),
       "frac"},
      {"ok_frac",
       static_cast<double>(open.ok) / static_cast<double>(open.released),
       "frac"},
      {"store_write_bytes_per_event",
       per_event(static_cast<double>(bytes1 - bytes0)), "B/event"},
      {"rss_peak_mib", rss_mib, "MiB"},
  };
  print_result(res);
  return 0;
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n"
               "       perfbench --prepare [--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--prepare") {
      a.prepare = true;
    } else if (k == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (k == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has_value) {
      a.seconds = std::atof(argv[++i]);
    } else if (k == "--trace" && has_value) {
      a.trace = std::atoi(argv[++i]);
    } else if (k == "--work-dir" && has_value) {
      a.work_dir = argv[++i];
    } else {
      return usage();
    }
  }
  try {
    std::filesystem::create_directories(a.work_dir);
    cham::set_num_threads(1);  // what threaded serving runs at, everywhere
    if (a.prepare) {
      // Pretrains the backbone once (slow) and caches it in the work dir,
      // so no timed set-up ever includes a cold pretrain.
      perfbench::metrics::Experiment exp(
          perfbench::served_experiment(a.work_dir));
      return 0;
    }
    const perfbench::WorkloadSpec* w = perfbench::find_workload(a.workload);
    if (!w || a.seconds <= 0 || (a.trace != 0 && a.trace != 1)) {
      return usage();
    }
    return a.trace ? perfbench::run_traced(*w, a)
                   : perfbench::run_untraced(*w, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
