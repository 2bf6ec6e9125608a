#include "data/stream.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace cham::data {

DomainIncrementalStream::DomainIncrementalStream(
    const DatasetConfig& data_cfg, const StreamConfig& stream_cfg) {
  Rng rng(stream_cfg.seed * 0x2545F4914F6CDD1Dull + 17);

  // Initial preferred set: random k classes; optionally redrawn per
  // half-stream to model drifting user interest.
  auto draw_preferred = [&]() {
    return rng.sample_without_replacement(data_cfg.num_classes,
                                          stream_cfg.num_preferred);
  };
  std::vector<int64_t> preferred = draw_preferred();

  const int64_t samples_per_domain =
      data_cfg.num_classes * data_cfg.train_instances;
  const int64_t drift_domain =
      stream_cfg.drift_preferences ? data_cfg.num_domains / 2 : -1;

  for (int64_t d = 0; d < data_cfg.num_domains; ++d) {
    if (d == drift_domain) preferred = draw_preferred();
    preferred_by_domain_.push_back(preferred);

    std::vector<double> class_weights(
        static_cast<size_t>(data_cfg.num_classes), 1.0);
    for (int64_t c : preferred) {
      class_weights[static_cast<size_t>(c)] = stream_cfg.preference_weight;
    }

    // Emit runs until the domain quota is filled. Instances within a class
    // are sampled with replacement (a user re-encounters the same object).
    std::vector<ImageKey> ordered;
    ordered.reserve(static_cast<size_t>(samples_per_domain));
    while (static_cast<int64_t>(ordered.size()) < samples_per_domain) {
      const int64_t cls = rng.sample_weighted(class_weights);
      const int64_t len = std::min<int64_t>(
          1 + rng.uniform_int(stream_cfg.run_length),
          samples_per_domain - static_cast<int64_t>(ordered.size()));
      for (int64_t i = 0; i < len; ++i) {
        ordered.push_back({static_cast<int32_t>(cls),
                           static_cast<int32_t>(d),
                           static_cast<int32_t>(
                               rng.uniform_int(data_cfg.train_instances)),
                           /*test=*/false});
      }
    }

    for (int64_t start = 0; start < samples_per_domain;
         start += stream_cfg.batch_size) {
      const int64_t end =
          std::min(start + stream_cfg.batch_size, samples_per_domain);
      Batch b;
      b.domain = d;
      for (int64_t i = start; i < end; ++i) {
        b.keys.push_back(ordered[static_cast<size_t>(i)]);
        b.labels.push_back(ordered[static_cast<size_t>(i)].class_id);
      }
      total_samples_ += end - start;
      batches_.push_back(std::move(b));
    }
  }
}

ClassIncrementalStream::ClassIncrementalStream(
    const DatasetConfig& data_cfg, const ClassIncrementalConfig& cfg) {
  Rng rng(cfg.seed * 0x9E3779B97F4A7C15ull + 5);

  // Random class-to-task assignment (the usual Class-IL protocol).
  std::vector<int64_t> class_order(
      static_cast<size_t>(data_cfg.num_classes));
  for (int64_t c = 0; c < data_cfg.num_classes; ++c) {
    class_order[static_cast<size_t>(c)] = c;
  }
  rng.shuffle(class_order);
  num_tasks_ = (data_cfg.num_classes + cfg.classes_per_task - 1) /
               cfg.classes_per_task;
  task_classes_.resize(static_cast<size_t>(num_tasks_));
  for (size_t i = 0; i < class_order.size(); ++i) {
    task_classes_[i / static_cast<size_t>(cfg.classes_per_task)].push_back(
        class_order[i]);
  }

  for (int64_t t = 0; t < num_tasks_; ++t) {
    const auto& classes = task_classes_[static_cast<size_t>(t)];
    const int64_t quota = static_cast<int64_t>(classes.size()) *
                          data_cfg.num_domains * data_cfg.train_instances;
    // Temporally-correlated runs over the task's classes, domains mixed.
    std::vector<ImageKey> ordered;
    ordered.reserve(static_cast<size_t>(quota));
    while (static_cast<int64_t>(ordered.size()) < quota) {
      const int64_t cls = classes[static_cast<size_t>(
          rng.uniform_int(static_cast<int64_t>(classes.size())))];
      const int64_t domain = rng.uniform_int(data_cfg.num_domains);
      const int64_t len = std::min<int64_t>(
          1 + rng.uniform_int(cfg.run_length),
          quota - static_cast<int64_t>(ordered.size()));
      for (int64_t i = 0; i < len; ++i) {
        ordered.push_back({static_cast<int32_t>(cls),
                           static_cast<int32_t>(domain),
                           static_cast<int32_t>(
                               rng.uniform_int(data_cfg.train_instances)),
                           /*test=*/false});
      }
    }
    for (int64_t start = 0; start < quota; start += cfg.batch_size) {
      const int64_t end = std::min(start + cfg.batch_size, quota);
      Batch b;
      b.domain = t;  // the "task id" plays the domain role for trackers
      for (int64_t i = start; i < end; ++i) {
        b.keys.push_back(ordered[static_cast<size_t>(i)]);
        b.labels.push_back(ordered[static_cast<size_t>(i)].class_id);
      }
      batches_.push_back(std::move(b));
    }
  }
}

std::vector<SessionEvent> make_zipf_schedule(const MultiUserConfig& cfg) {
  CHAM_CHECK(cfg.num_sessions > 0, "make_zipf_schedule: no sessions");
  CHAM_CHECK(cfg.events >= 0, "make_zipf_schedule: negative event count");
  CHAM_CHECK(cfg.predict_fraction >= 0.0 && cfg.predict_fraction <= 1.0,
             "make_zipf_schedule: predict_fraction outside [0, 1]");
  Rng rng(cfg.seed * 0x9E3779B97F4A7C15ull + 0x5EED);

  // Zipf weights over session rank (rank 0 hottest): w_r = 1 / (r+1)^s.
  std::vector<double> weights(static_cast<size_t>(cfg.num_sessions));
  for (int64_t r = 0; r < cfg.num_sessions; ++r) {
    weights[static_cast<size_t>(r)] =
        1.0 / std::pow(static_cast<double>(r + 1), cfg.zipf_s);
  }

  std::vector<SessionEvent> schedule;
  schedule.reserve(static_cast<size_t>(cfg.events));
  std::vector<int64_t> next_batch(static_cast<size_t>(cfg.num_sessions), 0);
  for (int64_t e = 0; e < cfg.events; ++e) {
    int64_t s = rng.sample_weighted(weights);
    if (s < 0) s = rng.uniform_int(cfg.num_sessions);
    // Draw the kind even when predict_fraction == 0 so enabling predicts
    // does not perturb which sessions the remaining events land on.
    const bool predict = rng.bernoulli(cfg.predict_fraction);
    auto& next = next_batch[static_cast<size_t>(s)];
    schedule.push_back({s, predict ? next : next++, predict});
  }
  return schedule;
}

bool get_keys(util::Reader& r, std::vector<ImageKey>& out) {
  const uint32_t n = r.u32();
  if (!r.ok() || r.left() / kKeyBytes < n) return false;
  out.resize(n);
  for (ImageKey& k : out) {
    k.class_id = r.i32();
    k.domain_id = r.i32();
    k.instance_id = r.i32();
    k.test = r.u8() != 0;
  }
  return r.ok();
}

bool get_batch(util::Reader& r, Batch& out) {
  out.domain = r.i64();
  if (!get_keys(r, out.keys)) return false;
  const uint32_t n = r.u32();
  if (!r.ok() || r.left() / kLabelBytes < n) return false;
  out.labels.resize(n);
  for (int64_t& label : out.labels) label = r.i64();
  return r.ok();
}

}  // namespace cham::data
