// Traced run (--trace 1): per-layer numbers for one workload and seed.
//
//   0. Live counters: the untraced run's open-loop phase over the socket,
//      recording the ServeStats / NetStats deltas the system keeps itself,
//      then STATS round trips on the idle server (the wire's own cost).
//   1. Request spans: the same per-session sequences replayed in-process
//      against a deterministic-mode SessionManager, one drain() per
//      request, with a span around every submit_* and every drain(), keyed
//      by request index. The replay's predictions must equal the wire
//      replies bit for bit.
//   2. Component spans: each module's public functions called on this
//      workload's own inputs — protocol encode/decode on its frames,
//      BatchPlanner::take_eligible/finalize on its request queues,
//      ChameleonLearner observe/predict/save_state/load_state on its batches
//      and pages, SessionStore put_full/get_blob on its blobs, and
//      LatentCache::latent on its keys — at the tensor pool size threaded
//      serving forces (1 thread).
//
// Attribution: a component's self time (its span minus the child spans it
// contains, e.g. latent lookups inside observe) times its count in the
// replay's stats, summed, over the measured drain() wall time.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <future>
#include <numeric>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "net/protocol.h"
#include "serve/batch_planner.h"
#include "serve/session_store.h"
#include "stack.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// One recorded span: [start, end) in microseconds from the trace origin.
struct Span {
  const char* name;
  int64_t request;  // open-loop request index
  double start_us;
  double end_us;
};

struct SpanLog {
  Clock::time_point origin = Clock::now();
  std::vector<Span> spans;

  double now_us() const { return us_since(origin); }
  void add(const char* name, int64_t request, double start_us) {
    spans.push_back({name, request, start_us, now_us()});
  }
  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return;
    std::fprintf(f, "name,request,start_us,end_us\n");
    for (const Span& s : spans) {
      std::fprintf(f, "%s,%lld,%.3f,%.3f\n", s.name,
                   static_cast<long long>(s.request), s.start_us, s.end_us);
    }
    std::fclose(f);
  }
};

// Cost of recording one span (two clock reads and an append), for the
// tracing overhead estimate.
double span_cost_us() {
  SpanLog log;
  constexpr int kN = 100000;
  log.spans.reserve(kN);
  const auto t0 = Clock::now();
  for (int i = 0; i < kN; ++i) log.add("calibrate", i, log.now_us());
  return us_since(t0) / kN;
}

struct Components {
  double codec_ns_per_frame = 0;
  double plan_us_p50 = 0;
  double observe_ms_p50 = 0;
  double observe_ms_p95 = 0;
  double observe_ms_mean = 0;
  double head_gmacs_per_s = 0;
  double offchip_bytes_per_observe = 0;
  double predict_ms_per_key = 0;
  double save_state_ms = 0;
  double load_state_ms = 0;
  double blob_bytes = 0;
  double put_full_ms_p50 = 0;
  double get_blob_ms_p50 = 0;
  double latent_lookup_ns = 0;
  double create_ms = 0;
};

// Protocol encode + decode of every request frame and its reply, per frame.
double time_codec(const Inputs& in, const PhaseResult& wire) {
  net::WireBuf buf;
  cham::data::Batch batch;
  std::vector<cham::data::ImageKey> keys;
  std::vector<int64_t> preds;
  int64_t depth = 0;
  int64_t frames = 0;
  auto pass = [&] {
    bool ok = true;
    for (std::size_t i = 0; i < in.open_loop.size(); ++i) {
      const Op& op = in.open_loop[i];
      buf.clear();
      if (op.kind == Kind::kObserve) {
        net::encode_observe(buf, 1, i, in.batch(op));
        net::encode_observe_ok(buf, 1, i, 3);
      } else {
        net::encode_predict(buf, 1, i, op.keys);
        net::encode_predict_result(buf, 1, i, wire.records[i].preds);
      }
      std::size_t off = 0;
      while (off < buf.size()) {
        net::FrameHeader h;
        ok = ok && net::read_header(buf.data() + off, buf.size() - off, h);
        const uint8_t* p = buf.data() + off + net::kHeaderBytes;
        ok = ok && net::crc32(p, h.payload_len) == h.payload_crc;
        switch (h.type) {
          case net::MsgType::kObserve:
            ok = ok && net::decode_observe(p, h.payload_len, batch);
            break;
          case net::MsgType::kObserveOk:
            ok = ok && net::decode_observe_ok(p, h.payload_len, depth);
            break;
          case net::MsgType::kPredict:
            ok = ok && net::decode_predict(p, h.payload_len, keys);
            break;
          default:
            ok = ok && net::decode_predict_result(p, h.payload_len, preds);
        }
        off += net::kHeaderBytes + h.payload_len;
        ++frames;
      }
    }
    if (!ok) throw std::runtime_error("codec round trip failed");
  };
  pass();  // warm the buffers
  frames = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < 3; ++r) pass();
  return us_since(t0) * 1000.0 / static_cast<double>(frames);
}

// BatchPlanner extraction + ordering over queues cut from the schedule.
double time_planner(const WorkloadSpec& w, const Inputs& in) {
  serve::BatchPlannerConfig pc;
  pc.max_batch = serve::ServeConfig{}.max_batch;
  const serve::BatchPlanner planner(pc);
  const std::size_t depth = static_cast<std::size_t>(w.sat_window);
  std::vector<double> us;
  for (std::size_t begin = 0; begin + depth <= in.open_loop.size();
       begin += depth) {
    std::deque<serve::Request> queue;
    for (std::size_t i = begin; i < begin + depth; ++i) {
      const Op& op = in.open_loop[i];
      serve::Request r;
      r.session_id = static_cast<uint64_t>(op.session);
      if (op.kind == Kind::kObserve) {
        r.kind = serve::Request::Kind::kObserve;
        r.batch = in.batch(op);
      } else {
        r.kind = serve::Request::Kind::kPredict;
        r.keys = op.keys;
        r.reply = std::make_shared<std::promise<std::vector<int64_t>>>();
      }
      queue.push_back(std::move(r));
    }
    std::vector<serve::Request> eligible;
    const auto t0 = Clock::now();
    planner.take_eligible(queue, eligible);
    const serve::BatchPlan plan = planner.finalize(std::move(eligible));
    us.push_back(us_since(t0));
  }
  return us.empty() ? 0.0 : median(us);
}

Components time_components(const WorkloadSpec& w, const Inputs& in,
                           const PhaseResult& wire, metrics::Experiment& exp,
                           const Args& a) {
  Components c;
  c.codec_ns_per_frame = time_codec(in, wire);
  c.plan_us_p50 = time_planner(w, in);

  // Learner calls on the workload's own batches and pages, through one
  // learner per session (seeded as the manager seeds it) for small
  // populations, a pool of kMaxLearners otherwise.
  constexpr int64_t kMaxLearners = 8;
  const int64_t nlearners = std::min(w.sessions, kMaxLearners);
  std::vector<std::unique_ptr<core::ChameleonLearner>> learners;
  std::vector<double> create_ms;
  for (int64_t l = 0; l < std::max<int64_t>(nlearners, 16); ++l) {
    const auto t0 = Clock::now();
    auto learner = make_learner(exp, cham::split_seed(kBaseSeed, l));
    create_ms.push_back(us_since(t0) / 1000.0);
    if (l < nlearners) learners.push_back(std::move(learner));
  }
  c.create_ms = median(create_ms);
  std::vector<const Op*> observes, predicts;
  for (const auto* list : {&in.warmup, &in.open_loop}) {
    for (const Op& op : *list) {
      (op.kind == Kind::kObserve ? observes : predicts).push_back(&op);
    }
  }
  constexpr std::size_t kObserveSamples = 200;
  constexpr std::size_t kPredictSamples = 400;
  std::vector<double> obs_ms;
  double macs = 0, offchip = 0;
  for (std::size_t k = 0; k < kObserveSamples && !observes.empty(); ++k) {
    const Op& op = *observes[k % observes.size()];
    auto& l = *learners[static_cast<size_t>(op.session % nlearners)];
    const core::OpStats before = l.stats();
    const auto& batch = in.batch(op);
    const auto t0 = Clock::now();
    l.observe(batch);
    obs_ms.push_back(us_since(t0) / 1000.0);
    const core::OpStats& after = l.stats();
    macs += (after.g_fwd_macs - before.g_fwd_macs) +
            (after.g_bwd_macs - before.g_bwd_macs);
    offchip += after.offchip_bytes - before.offchip_bytes;
  }
  c.observe_ms_p50 = median(obs_ms);
  c.observe_ms_p95 = percentile(obs_ms, 0.95);
  c.observe_ms_mean = mean(obs_ms);
  c.head_gmacs_per_s =
      macs / (c.observe_ms_mean * static_cast<double>(obs_ms.size()) / 1e3) /
      1e9;
  c.offchip_bytes_per_observe = offchip / static_cast<double>(obs_ms.size());

  double pred_us = 0, pred_keys = 0;
  for (std::size_t k = 0; k < kPredictSamples && !predicts.empty(); ++k) {
    const Op& op = *predicts[k % predicts.size()];
    auto& l = *learners[static_cast<size_t>(op.session % nlearners)];
    const auto t0 = Clock::now();
    const auto p = l.predict(op.keys);
    pred_us += us_since(t0);
    pred_keys += static_cast<double>(p.size());
  }
  c.predict_ms_per_key = ratio(pred_us / 1000.0, pred_keys);

  // Checkpoint round trips of these trained learners.
  std::vector<double> save_ms, load_ms;
  std::vector<core::ByteBuf> blobs;
  for (int rep = 0; rep < 3; ++rep) {
    for (int64_t l = 0; l < nlearners; ++l) {
      core::ByteBuf buf;
      auto t0 = Clock::now();
      {
        core::ByteBufWriter os(buf);
        if (!learners[static_cast<size_t>(l)]->save_state(os)) {
          throw std::runtime_error("save_state failed");
        }
      }
      save_ms.push_back(us_since(t0) / 1000.0);
      auto fresh = make_learner(exp, 1);
      t0 = Clock::now();
      core::ByteBufReader is(buf.data(), buf.size());
      if (!fresh->load_state(is)) throw std::runtime_error("load_state failed");
      load_ms.push_back(us_since(t0) / 1000.0);
      blobs.push_back(std::move(buf));
    }
  }
  c.save_state_ms = median(save_ms);
  c.load_state_ms = median(load_ms);
  c.blob_bytes = static_cast<double>(blobs.front().size());

  // Durable store writes and reads of those blobs.
  serve::SessionStore store(a.work_dir + "/store-probe-" + a.workload);
  store.clear();
  std::vector<double> put_ms, get_ms;
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    const auto t0 = Clock::now();
    if (!store.put_full(i, blobs[i].data(), blobs[i].size())) {
      throw std::runtime_error("put_full failed");
    }
    put_ms.push_back(us_since(t0) / 1000.0);
  }
  core::ByteBuf got;
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    const auto t0 = Clock::now();
    if (!store.get_blob(i, got)) throw std::runtime_error("get_blob failed");
    get_ms.push_back(us_since(t0) / 1000.0);
  }
  store.clear();
  c.put_full_ms_p50 = median(put_ms);
  c.get_blob_ms_p50 = median(get_ms);

  // Latent lookups on the workload's keys (behind the cache mutex).
  std::vector<cham::data::ImageKey> keys;
  for (const Op* op : observes) {
    const auto& b = in.batch(*op);
    keys.insert(keys.end(), b.keys.begin(), b.keys.end());
  }
  for (const Op* op : predicts) {
    keys.insert(keys.end(), op->keys.begin(), op->keys.end());
  }
  constexpr std::size_t kLookups = 50000;
  cham::data::LatentCache& cache = exp.latents();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kLookups; ++i) {
    (void)cache.latent(keys[i % keys.size()]);  // locks: not elided
  }
  c.latent_lookup_ns = us_since(t0) * 1000.0 / kLookups;
  return c;
}

}  // namespace

int run_traced(const WorkloadSpec& w, const Args& a) {
  // The open-loop schedule is the untraced run's (same seed, same length).
  const double open_s = a.seconds;
  const double sat_s = kSatSeconds;
  const int64_t closed_count = std::max<int64_t>(
      5000, static_cast<int64_t>(8.0 * w.rate_per_s * sat_s));
  const Inputs in = make_inputs(w, a.seed, open_s, closed_count);
  const std::size_t n = in.open_loop.size();

  // --- 0. Live counters over the socket. --------------------------------
  Stack st;
  build_stack(st, w, in, a);
  serve::SessionManager& mgr = *st.mgr;
  const serve::ServeStats s0 = mgr.stats();
  const net::NetStats n0 = st.server->stats();
  PhaseOptions opt;
  opt.open_loop = true;
  const PhaseResult wire = st.load->run(in.open_loop, in, opt);
  mgr.drain();
  const serve::ServeStats s1 = mgr.stats();
  const net::NetStats n1 = st.server->stats();
  std::vector<double> rtt = st.load->stats_round_trips(220);
  rtt.erase(rtt.begin(), rtt.begin() + 20);  // warm-up round trips
  const double echo_rtt_us = median(rtt);

  // Closed-loop saturation: sat_window requests in flight per connection,
  // backpressured requests retried within a millisecond so the shard queues
  // stay full. Executed events are sampled every kSatTick; the rate is the
  // median over those intervals.
  constexpr double kSatTick = 0.5;
  std::vector<std::pair<double, int64_t>> ticks = {
      {0.0, executed_events(mgr.stats())}};
  PhaseOptions sat_opt;
  sat_opt.open_loop = false;
  sat_opt.window = w.sat_window;
  sat_opt.release_seconds = sat_s;
  sat_opt.max_retry_s = 0.001;
  sat_opt.tick_s = kSatTick;
  sat_opt.on_tick = [&](double t) {
    ticks.emplace_back(t, executed_events(mgr.stats()));
  };
  const PhaseResult sat = st.load->run(in.closed_loop, in, sat_opt);
  std::vector<double> sat_rates;
  for (std::size_t i = 1; i < ticks.size(); ++i) {
    sat_rates.push_back(
        static_cast<double>(ticks[i].second - ticks[i - 1].second) /
        (ticks[i].first - ticks[i - 1].first));
  }

  // Every wire reply (warm-up, open and closed loop) against isolated
  // learners, and probe sessions restored from the flushed store.
  mgr.flush();
  ExecutionLog exec(in);
  exec.add(in.warmup, st.warmup);
  exec.add(in.open_loop, wire);
  exec.add(in.closed_loop, sat);
  st.load.reset();
  st.server.reset();
  const CheckResult check =
      check_against_isolated(*st.exp, in, exec, store_dir(a));
  st.mgr.reset();

  // --- 1. Request spans: deterministic in-process replay. ---------------
  metrics::Experiment& exp = *st.exp;
  const std::string rdir = store_dir(a) + "-replay";
  serve::SessionStore(rdir).clear();
  prepopulate_store(exp, w, in, rdir);
  serve::SessionManager rm(
      serve_config(w, serve::ServeMode::kDeterministic, rdir),
      [&exp](uint64_t, uint64_t seed) { return make_learner(exp, seed); });
  auto submit = [&](const Op& op, std::future<std::vector<int64_t>>* f) {
    const auto sid = static_cast<uint64_t>(op.session);
    return op.kind == Kind::kObserve ? rm.submit_observe(sid, in.batch(op))
                                     : rm.submit_predict(sid, op.keys, f);
  };
  for (const Op& op : in.warmup) {  // the wire set-up's requests, untraced
    std::future<std::vector<int64_t>> f;
    while (!submit(op, &f).accepted) rm.drain();
    rm.drain();
  }

  SpanLog log;
  log.spans.reserve(2 * n + 16);
  std::vector<double> admit_us, drain_ms(n, 0.0);
  int64_t mismatches = 0, compared = 0, pred_keys = 0, batch_keys = 0;
  const serve::ServeStats r0 = rm.stats();
  const double replay_t0 = log.now_us();
  for (std::size_t i = 0; i < n; ++i) {
    const Op& op = in.open_loop[i];
    std::future<std::vector<int64_t>> f;
    double t = log.now_us();
    bool accepted = submit(op, &f).accepted;
    log.add("serve.submit", static_cast<int64_t>(i), t);
    admit_us.push_back(log.spans.back().end_us - t);
    while (!accepted) {  // never expected at one request per drain
      rm.drain();
      accepted = submit(op, &f).accepted;
    }
    t = log.now_us();
    rm.drain();
    log.add("serve.drain", static_cast<int64_t>(i), t);
    drain_ms[i] = (log.spans.back().end_us - t) / 1000.0;
    if (op.kind == Kind::kPredict) {
      pred_keys += static_cast<int64_t>(op.keys.size());
      const auto preds = f.get();
      if (wire.records[i].ok) {
        ++compared;
        if (preds != wire.records[i].preds) ++mismatches;
      }
    } else {
      batch_keys += static_cast<int64_t>(in.batch(op).keys.size());
    }
  }
  const double replay_wall_us = log.now_us() - replay_t0;
  const serve::ServeStats r1 = rm.stats();
  log.write(a.work_dir + "/trace-" + w.name + "-" + std::to_string(a.seed) +
            ".csv");

  // --- 2. Component spans on this workload's inputs. --------------------
  const Components c = time_components(w, in, wire, exp, a);

  // --- Derived per-layer numbers. --------------------------------------
  const double events = static_cast<double>(n);
  const double drain_total_ms =
      std::accumulate(drain_ms.begin(), drain_ms.end(), 0.0);
  const double admit_total_ms =
      std::accumulate(admit_us.begin(), admit_us.end(), 0.0) / 1000.0;
  double wire_pred_ms = 0, replay_pred_ms = 0;
  std::vector<double> wire_obs_lat, wire_pred_lat;
  for (std::size_t i = 0; i < n; ++i) {
    const Record& r = wire.records[i];
    if (!r.ok) continue;
    const double ms = ms_between(r.due_s, r.reply_s);
    if (in.open_loop[i].kind == Kind::kPredict) {
      wire_pred_ms += ms;
      replay_pred_ms += drain_ms[i];
      wire_pred_lat.push_back(ms);
    } else {
      wire_obs_lat.push_back(ms);
    }
  }

  // Replay counts (what the drain() wall time contains).
  const auto d = [](int64_t a1, int64_t a0) {
    return static_cast<double>(a1 - a0);
  };
  const double r_obs = d(r1.observes, r0.observes);
  const double r_evict = d(r1.evictions, r0.evictions);
  const double r_restore = d(r1.restores, r0.restores);
  const double r_disk = d(r1.disk_restores, r0.disk_restores);
  const double r_replayed = d(r1.replayed_ops, r0.replayed_ops);
  const double r_plans =
      d(r1.predicts - r1.batched_predicts + r1.predict_batches,
        r0.predicts - r0.batched_predicts + r0.predict_batches);
  const double pred_share = ratio(d(r1.predicts, r0.predicts),
                                  d(executed_events(r1), executed_events(r0)));
  const double op_ms = (1 - pred_share) * c.observe_ms_mean +
                       pred_share * c.predict_ms_per_key *
                           ratio(static_cast<double>(pred_keys),
                                 d(r1.predicts, r0.predicts));
  const double lookups_ms = (static_cast<double>(batch_keys + pred_keys)) *
                            c.latent_lookup_ns / 1e6;
  const double r_new = d(r1.creates, r0.creates) + r_restore;
  const double core_ms = r_new * c.create_ms + r_obs * c.observe_ms_mean +
                         static_cast<double>(pred_keys) * c.predict_ms_per_key +
                         r_replayed * op_ms + r_evict * c.save_state_ms +
                         r_restore * c.load_state_ms - lookups_ms;
  const double store_ms = r_disk * c.get_blob_ms_p50;
  const double planner_ms = r_plans * c.plan_us_p50 / 1000.0;
  const double attributed_ms = core_ms + lookups_ms + store_ms + planner_ms;
  const double net_ms = events * echo_rtt_us / 1000.0;
  const double serve_ms =
      admit_total_ms + std::max(0.0, drain_total_ms - attributed_ms);
  const double total_ms =
      net_ms + serve_ms + core_ms + lookups_ms + store_ms + planner_ms;
  const double overhead =
      static_cast<double>(log.spans.size()) * span_cost_us() / replay_wall_us;

  // Live counters (the threaded system over the socket).
  const double l_events = d(executed_events(s1), executed_events(s0));
  const double l_restores = d(s1.restores, s0.restores);
  const double l_evictions = d(s1.evictions, s0.evictions);
  const double l_flushes = d(s1.wb_flushes, s0.wb_flushes);
  const double l_windows =
      d(s1.predicts - s1.batched_predicts + s1.predict_batches,
        s0.predicts - s0.batched_predicts + s0.predict_batches);
  const double n_requests = d(n1.observes_in + n1.predicts_in,
                              n0.observes_in + n0.predicts_in);

  const bool correct = mismatches == 0 && check.mismatches == 0 &&
                       wire.failed == 0 && sat.failed == 0 &&
                       exec.observes_acked == exec.observes_sent;

  std::printf("perfbench %s seed %llu (traced): open loop %.0f/s for %.1f "
              "s, closed loop %lld x %d connections for %.1f s\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              w.rate_per_s, open_s, static_cast<long long>(w.sat_window),
              kConnections, sat_s);
  print_phase("warmup", st.warmup);
  print_phase("open", wire);
  print_phase("closed", sat);
  std::printf("  correctness: %lld/%lld observes acked; %lld predicts vs "
              "isolated learners and %lld restored sessions (%lld "
              "mismatches); %lld predicts vs the deterministic replay (%lld "
              "mismatches); %zu spans\n",
              static_cast<long long>(exec.observes_acked),
              static_cast<long long>(exec.observes_sent),
              static_cast<long long>(check.predicts_checked),
              static_cast<long long>(check.probes_checked),
              static_cast<long long>(check.mismatches),
              static_cast<long long>(compared),
              static_cast<long long>(mismatches), log.spans.size());
  std::printf("  self-time shares: core %.3f, net %.3f, serve %.3f, planner "
              "%.3f, data %.3f, store %.3f (attributed %.3f of drain wall)\n",
              core_ms / total_ms, net_ms / total_ms, serve_ms / total_ms,
              planner_ms / total_ms, lookups_ms / total_ms,
              store_ms / total_ms, attributed_ms / drain_total_ms);

  RunResult res;
  res.correct = correct;
  res.attempted = wire.released + sat.released;
  res.failed = wire.failed + sat.failed;
  res.metrics = {
      {"latency.observe_p50_ms", windowed_percentile(wire_obs_lat, 0.5),
       "ms"},
      {"latency.predict_p50_ms", windowed_percentile(wire_pred_lat, 0.5),
       "ms"},
      {"latency.observe_tail_ms",
       percentile(wire_obs_lat, tail_quantile(wire_obs_lat.size())), "ms"},
      {"latency.predict_tail_ms",
       percentile(wire_pred_lat, tail_quantile(wire_pred_lat.size())), "ms"},
      {"latency.sat_events_per_s", median(sat_rates), "1/s"},
      {"net.codec_ns_per_frame", c.codec_ns_per_frame, "ns"},
      {"net.echo_rtt_p50_us", echo_rtt_us, "us"},
      {"net.bytes_per_event",
       ratio(d(n1.bytes_in + n1.bytes_out, n0.bytes_in + n0.bytes_out),
             l_events),
       "B/event"},
      {"net.write_stalls", d(n1.write_stalls, n0.write_stalls), "count"},
      {"net.outbox_high_water_bytes",
       static_cast<double>(n1.outbox_high_water_bytes), "B"},
      {"net.backpressure_frac",
       ratio(d(n1.err_backpressure, n0.err_backpressure), n_requests), "frac"},
      {"serve.admit_us_p50", median(admit_us), "us"},
      {"serve.reject_frac",
       ratio(d(s1.rejections, s0.rejections), d(s1.submitted, s0.submitted)),
       "frac"},
      {"serve.queue_depth_high_water",
       static_cast<double>(s1.queue_depth_high_water), "count"},
      {"serve.dispatch_ms_per_event", drain_total_ms / events, "ms"},
      {"serve.wait_frac", 1.0 - ratio(replay_pred_ms, wire_pred_ms), "frac"},
      {"planner.predicts_per_window",
       ratio(d(s1.predicts, s0.predicts), l_windows), "count"},
      {"planner.plan_us_p50", c.plan_us_p50, "us"},
      {"acquire.evictions_per_event", ratio(l_evictions, l_events), "1/event"},
      {"acquire.restores_per_event", ratio(l_restores, l_events), "1/event"},
      {"acquire.save_ms_avg",
       ratio(s1.save_ms_total - s0.save_ms_total, l_evictions), "ms"},
      {"acquire.restore_ms_avg",
       ratio(s1.restore_ms_total - s0.restore_ms_total, l_restores), "ms"},
      {"acquire.evict_lock_ms_max", s1.evict_lock_ms_max, "ms"},
      {"acquire.restore_disk_frac",
       ratio(d(s1.disk_restores, s0.disk_restores), l_restores), "frac"},
      {"acquire.restore_cache_frac",
       ratio(d(s1.cache_restores, s0.cache_restores), l_restores), "frac"},
      {"acquire.restore_pending_frac",
       ratio(d(s1.pending_restores, s0.pending_restores), l_restores), "frac"},
      {"acquire.replayed_ops_per_restore",
       ratio(d(s1.replayed_ops, s0.replayed_ops), l_restores), "count"},
      {"wb.flush_ms_avg",
       ratio(s1.flush_ms_total - s0.flush_ms_total, l_flushes), "ms"},
      {"wb.flush_ms_max", s1.flush_ms_max, "ms"},
      {"wb.queue_depth_high_water",
       static_cast<double>(s1.wb_queue_depth_high_water), "count"},
      {"wb.delta_frac",
       ratio(d(s1.wb_chunk_saves + s1.wb_oplog_saves,
               s0.wb_chunk_saves + s0.wb_oplog_saves),
             l_flushes),
       "frac"},
      {"wb.full_bytes_per_event",
       ratio(d(s1.wb_full_bytes, s0.wb_full_bytes), l_events), "B/event"},
      {"wb.delta_bytes_per_event",
       ratio(d(s1.wb_delta_bytes, s0.wb_delta_bytes), l_events), "B/event"},
      {"wb.cache_bytes_high_water",
       static_cast<double>(s1.wb_cache_bytes_high_water), "B"},
      {"store.put_full_ms_p50", c.put_full_ms_p50, "ms"},
      {"store.get_blob_ms_p50", c.get_blob_ms_p50, "ms"},
      {"core.observe_ms_p50", c.observe_ms_p50, "ms"},
      {"core.observe_ms_p95", c.observe_ms_p95, "ms"},
      {"core.head_gmacs_per_s", c.head_gmacs_per_s, "GMAC/s"},
      {"core.predict_ms_per_key", c.predict_ms_per_key, "ms"},
      {"core.create_ms", c.create_ms, "ms"},
      {"core.save_state_ms", c.save_state_ms, "ms"},
      {"core.load_state_ms", c.load_state_ms, "ms"},
      {"core.blob_bytes", c.blob_bytes, "B"},
      {"core.offchip_bytes_per_observe", c.offchip_bytes_per_observe, "B"},
      {"data.latent_lookup_ns", c.latent_lookup_ns, "ns"},
      {"trace.attributed_frac", ratio(attributed_ms, drain_total_ms), "frac"},
      {"trace.overhead_frac", overhead, "frac"},
      {"trace.share_core", core_ms / total_ms, "frac"},
      {"trace.share_net", net_ms / total_ms, "frac"},
      {"trace.share_serve", serve_ms / total_ms, "frac"},
      {"trace.share_planner", planner_ms / total_ms, "frac"},
      {"trace.share_data", lookups_ms / total_ms, "frac"},
      {"trace.share_store", store_ms / total_ms, "frac"},
  };
  print_result(res);
  return 0;
}

}  // namespace perfbench
