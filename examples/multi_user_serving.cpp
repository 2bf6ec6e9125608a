// Multi-user serving scenario: 50 concurrent personalization sessions
// multiplexed over a pool of 8 resident learners.
//
// Each user runs their own Chameleon learner — private head weights, replay
// stores and preference statistics — but an edge gateway cannot keep 50
// learners in memory. The SessionManager (src/serve/) keeps the hot users
// resident and pages cold users' full learner state to disk through the
// checkpoint layer; traffic is Zipf-skewed, so the hottest handful of users
// dominate arrivals while the long tail cycles through eviction.
//
// At the end, each spot-checked user's served model is compared against the
// same stream run in a dedicated learner: the predictions match exactly,
// which is the point — eviction is invisible to the user.
//
//   ./build/examples/multi_user_serving
#include <cstdio>
#include <memory>
#include <vector>

#include "core/chameleon.h"
#include "metrics/experiment.h"
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

  // 50 users, each with a private stream ordering over the shared pool.
  data::MultiUserConfig mc;
  mc.num_sessions = 50;
  mc.events = 500;
  mc.zipf_s = 1.1;
  mc.seed = 19;
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
  sc.max_resident = 8;
  sc.queue_capacity = 16;
  sc.store_dir = util::tmp_path("example_serving");
  sc.base_seed = 2024;
  serve::SessionStore(sc.store_dir).clear();

  core::ChameleonConfig cc;
  cc.lt_capacity = 18;
  serve::SessionManager mgr(
      sc, [&exp, cc](uint64_t /*user*/, uint64_t seed) {
        return std::make_unique<core::ChameleonLearner>(exp.env(), cc, seed);
      });

  std::printf("Serving %lld Zipf(%.1f) events from %lld users "
              "(pool: %lld resident / %lld shards)...\n",
              (long long)mc.events, mc.zipf_s, (long long)mc.num_sessions,
              (long long)sc.max_resident, (long long)sc.num_shards);

  std::vector<std::vector<const data::Batch*>> seen(
      static_cast<size_t>(mc.num_sessions));
  for (const auto& ev : schedule) {
    const auto& pool = streams[static_cast<size_t>(ev.session)];
    const auto& batch =
        pool[static_cast<size_t>(ev.batch_index) % pool.size()];
    seen[static_cast<size_t>(ev.session)].push_back(&batch);
    // Bounded queues: on rejection, drain and retry (a real gateway would
    // sleep adm.retry_after_ms and re-submit).
    while (!mgr.submit_observe(static_cast<uint64_t>(ev.session), batch)
                .accepted) {
      mgr.drain();
    }
  }
  mgr.flush();

  const serve::ServeStats st = mgr.stats();
  std::printf("\n  %-28s %lld\n  %-28s %lld\n  %-28s %lld\n  %-28s %lld\n"
              "  %-28s %lld\n  %-28s %.2f ms avg / %.2f ms max\n"
              "  %-28s %.2f ms avg / %.2f ms max\n",
              "observes dispatched", (long long)st.observes,
              "admission rejections", (long long)st.rejections,
              "sessions created", (long long)st.creates,
              "evictions to store", (long long)st.evictions,
              "restores from store", (long long)st.restores,
              "eviction (save)", st.save_ms_avg(), st.save_ms_max,
              "restore (load)", st.restore_ms_avg(), st.restore_ms_max);

  // The user-visible contract: serving through the shared pool produced
  // exactly the model each user would have gotten on dedicated hardware.
  const auto test_keys = data::all_test_keys(cfg.data);
  serve::SessionStore reader(sc.store_dir);
  const int64_t probes[] = {0, 12, 25, 49};
  std::printf("\n  %-8s %-8s %-14s %s\n", "user", "events", "predictions",
              "matches isolated run");
  for (int64_t u : probes) {
    if (seen[static_cast<size_t>(u)].empty()) {
      std::printf("  %-8lld %-8d %-14s (no traffic)\n", (long long)u, 0, "-");
      continue;
    }
    core::ChameleonLearner served(exp.env(), cc, 0x5E54);
    if (!reader.load(static_cast<uint64_t>(u), served)) {
      std::printf("  %-8lld restore FAILED\n", (long long)u);
      return 1;
    }
    core::ChameleonLearner dedicated(exp.env(), cc,
                                     mgr.session_seed(static_cast<uint64_t>(u)));
    for (const auto* b : seen[static_cast<size_t>(u)]) dedicated.observe(*b);
    const bool match = served.predict(test_keys) == dedicated.predict(test_keys);
    std::printf("  %-8lld %-8lld %-14lld %s\n", (long long)u,
                (long long)seen[static_cast<size_t>(u)].size(),
                (long long)test_keys.size(), match ? "yes" : "NO");
    if (!match) return 1;
  }
  std::printf("\nEviction round-trips were invisible to every probed user.\n");
  return 0;
}
