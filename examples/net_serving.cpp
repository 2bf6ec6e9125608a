// Network serving scenario: the multi_user_serving gateway split across
// process boundaries — one serving process, several client connections.
//
// A NetServer (src/net/) fronts the same sharded SessionManager with a
// length-prefixed binary protocol over a Unix-domain socket. Each client
// thread here stands in for a separate gateway process or device
// connection: it opens its own NetClient, trains its share of a Zipf-skewed
// user population with sequenced OBSERVE frames, and pipelines PREDICT
// frames so the server's BatchPlanner can merge eval windows ACROSS
// connections — the cross-connection coalescing an in-process caller gets
// for free.
//
// Backpressure crosses the wire typed: when a shard queue is full the
// server answers a BACKPRESSURE error carrying the admission layer's EWMA
// retry_after_ms hint, and the client sleeps exactly that long before
// resubmitting (the *_admitted helpers). At the end one client asks for a
// STATS frame — the combined ServeStats + NetStats JSON snapshot — and a
// SHUTDOWN frame stops the server gracefully: every in-flight request
// completes and flushes before the sockets close.
//
//   ./build/examples/net_serving
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/chameleon.h"
#include "metrics/experiment.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/session_manager.h"
#include "serve/session_store.h"
#include "util/tmp_path.h"

using namespace cham;

int main() {
  metrics::ExperimentConfig cfg = metrics::core50_experiment();
  cfg.data.num_classes = 6;
  cfg.data.num_domains = 2;
  cfg.data.train_instances = 5;
  cfg.pretrain_num_classes = 12;
  cfg.pretrain_epochs = 4;
  cfg.learner_lr = 0.02f;

  std::printf("Setting up (pretraining backbone if uncached)...\n");
  metrics::Experiment exp(cfg);

  data::MultiUserConfig mc;
  mc.num_sessions = 24;
  mc.events = 240;
  mc.zipf_s = 1.1;
  mc.seed = 19;
  mc.predict_fraction = 0.2;
  const auto schedule = data::make_zipf_schedule(mc);

  std::vector<std::vector<data::Batch>> streams;
  for (int64_t u = 0; u < mc.num_sessions; ++u) {
    data::StreamConfig sc = cfg.stream;
    sc.seed = 9000 + static_cast<uint64_t>(u) * 7919;
    data::DomainIncrementalStream stream(cfg.data, sc);
    exp.warm_latents(stream);
    streams.push_back(stream.batches());
  }

  serve::ServeConfig sc;
  sc.num_shards = 4;
  sc.max_resident = 6;  // << users: eviction churn behind the socket
  sc.queue_capacity = 16;
  sc.store_dir = util::tmp_path("example_net");
  sc.base_seed = 2024;
  sc.mode = serve::ServeMode::kThreaded;  // shard workers dispatch
  serve::SessionStore(sc.store_dir).clear();

  core::ChameleonConfig cc;
  cc.lt_capacity = 18;
  serve::SessionManager mgr(
      sc, [&exp, cc](uint64_t /*user*/, uint64_t seed) {
        return std::make_unique<core::ChameleonLearner>(exp.env(), cc, seed);
      });

  net::NetConfig nc;
  nc.unix_path = util::tmp_path("example_net.sock");
  net::NetServer server(mgr, nc);

  constexpr int kClients = 3;
  std::printf("Serving %lld Zipf(%.1f) events from %lld users over %s "
              "(%d client connections, pool: %lld resident / %lld shards)\n",
              (long long)mc.events, mc.zipf_s, (long long)mc.num_sessions,
              nc.unix_path.c_str(), kClients, (long long)sc.max_resident,
              (long long)sc.num_shards);

  std::atomic<long long> observes_ok{0};
  std::atomic<long long> predicts_ok{0};
  std::atomic<long long> backpressure_sleeps{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      net::NetClient client({net::Transport::kUnix, nc.unix_path, 0});
      const auto test_keys = data::all_test_keys(cfg.data);
      const std::vector<data::ImageKey> page(
          test_keys.begin(), test_keys.begin() + test_keys.size() / 2);
      std::vector<uint64_t> inflight;
      auto harvest = [&] {
        for (uint64_t id : inflight) {
          if (client.await_reply(id).ok()) {
            predicts_ok.fetch_add(1, std::memory_order_relaxed);
          }
        }
        inflight.clear();
      };
      // Round-robin split of the schedule: three gateways, one population.
      for (size_t i = static_cast<size_t>(c); i < schedule.size();
           i += kClients) {
        const auto& ev = schedule[i];
        const auto sid = static_cast<uint64_t>(ev.session);
        if (ev.predict) {
          // Pipelined: replies come back in request_id order; several
          // in-flight predicts are the planner's cross-connection fuel.
          inflight.push_back(client.send_predict(sid, page));
          if (inflight.size() >= 8) harvest();
          continue;
        }
        const auto& pool = streams[static_cast<size_t>(ev.session)];
        const auto& batch =
            pool[static_cast<size_t>(ev.batch_index) % pool.size()];
        // Sequenced observe: ack awaited before the next send, retried
        // after sleeping the server's retry_after_ms hint on rejection.
        net::Reply r = client.observe(sid, batch);
        while (r.backpressured()) {
          backpressure_sleeps.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(
              std::chrono::milliseconds(std::max<int64_t>(
                  1, r.error.retry_after_ms)));
          r = client.observe(sid, batch);
        }
        if (r.ok()) observes_ok.fetch_add(1, std::memory_order_relaxed);
      }
      harvest();
    });
  }
  for (auto& t : clients) t.join();

  // One more connection for the control plane: a combined stats snapshot,
  // then a graceful remote shutdown.
  net::NetClient control({net::Transport::kUnix, nc.unix_path, 0});
  const net::Reply stats = control.stats_json();
  const net::Reply bye = control.shutdown_server();
  while (server.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();  // joins the already-drained threads; idempotent

  const serve::ServeStats st = mgr.stats();
  const net::NetStats ns = server.stats();
  std::printf("\n  %-30s %lld\n  %-30s %lld\n  %-30s %lld\n  %-30s %lld\n"
              "  %-30s %lld\n  %-30s %lld frames in / %lld out\n"
              "  %-30s %lld (slept the EWMA hint %lld times)\n"
              "  %-30s %lld merged windows, widest %lld\n",
              "observes trained", (long long)observes_ok.load(),
              "predict replies", (long long)predicts_ok.load(),
              "connections served", (long long)ns.connections_accepted,
              "evictions to store", (long long)st.evictions,
              "restores from store", (long long)st.restores,
              "wire traffic", (long long)ns.frames_in,
              (long long)ns.frames_out,
              "backpressure errors", (long long)ns.err_backpressure,
              (long long)backpressure_sleeps.load(),
              "cross-connection batching", (long long)st.predict_batches,
              (long long)st.batch_size_max);
  if (stats.ok()) {
    std::printf("\n  STATS frame (ServeStats + NetStats, one JSON):\n    %s\n",
                stats.json.substr(0, 160).c_str());
  }
  std::printf("\n  shutdown: %s (drained in-flight work before closing)\n",
              bye.ok() ? "acknowledged" : "failed");
  mgr.flush();
  return observes_ok.load() > 0 && bye.ok() ? 0 : 1;
}
