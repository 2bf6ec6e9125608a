#include "workload.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/rng.h"

namespace perfbench {

using cham::Rng;
using cham::data::ImageKey;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kAll = [] {
    std::vector<WorkloadSpec> v;
    {
      // Head training does almost all the work; every session stays
      // resident, so eviction, write-behind and the store stay idle.
      WorkloadSpec w;
      w.name = "train_resident";
      w.sessions = 12;
      w.zipf_s = 0.5;
      w.predict_frac = 0.15;
      w.page_min = w.page_max = 4;
      w.rate_per_s = 35;
      w.slo_ms = 60;
      w.max_resident = 16;
      w.sat_window = 8;
      v.push_back(w);
    }
    {
      // Session acquisition dominates: a population far above max_resident
      // and a snapshot cache far below the working set, so requests evict
      // and restore from disk, replaying the pre-populated op logs.
      WorkloadSpec w;
      w.name = "read_churn";
      w.sessions = 64;
      w.zipf_s = 0.8;
      w.predict_frac = 0.80;
      w.page_min = 1;
      w.page_max = 4;
      w.rate_per_s = 30;
      w.slo_ms = 150;
      w.max_resident = 4;
      w.snapshot_cache_bytes = int64_t{16} << 20;  // ~8 blobs << working set
      w.sat_window = 8;
      w.prepop_delta_observes = 2;
      v.push_back(w);
    }
    {
      // Per-request compute is small: the wire and batch planning take
      // their largest share. The read-side mirror of train_resident.
      WorkloadSpec w;
      w.name = "predict_fanout";
      w.sessions = 12;
      w.zipf_s = 1.1;
      w.predict_frac = 0.95;
      w.page_min = w.page_max = 1;
      w.rate_per_s = 250;
      w.slo_ms = 50;
      w.max_resident = 16;
      w.sat_window = 16;
      v.push_back(w);
    }
    return v;
  }();
  return kAll;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

cham::data::DatasetConfig served_dataset() {
  cham::data::DatasetConfig d = cham::data::core50_config();
  d.num_classes = 6;
  d.num_domains = 2;
  d.train_instances = 5;
  return d;
}

namespace {

// Independent generator per purpose, so e.g. changing the open-loop length
// does not move the closed-loop draws.
Rng rng_for(uint64_t seed, uint64_t purpose) {
  return Rng(cham::split_seed(seed, purpose));
}

class OpDrawer {
 public:
  OpDrawer(const WorkloadSpec& w, const std::vector<ImageKey>& test_keys)
      : w_(w), test_keys_(test_keys) {
    weights_.resize(static_cast<size_t>(w.sessions));
    for (int64_t r = 0; r < w.sessions; ++r) {
      weights_[static_cast<size_t>(r)] =
          1.0 / std::pow(static_cast<double>(r + 1), w.zipf_s);
    }
    next_batch_.assign(static_cast<size_t>(w.sessions), 0);
  }

  int64_t draw_session(Rng& rng) {
    const int64_t s = rng.sample_weighted(weights_);
    return s < 0 ? rng.uniform_int(w_.sessions) : s;
  }

  Op make(int64_t session, Kind kind, Rng& rng) {
    Op op;
    op.session = session;
    op.kind = kind;
    if (kind == Kind::kObserve) {
      op.batch = next_batch_[static_cast<size_t>(session)]++;
      return op;
    }
    const int64_t n =
        w_.page_min + rng.uniform_int(w_.page_max - w_.page_min + 1);
    const int64_t total = static_cast<int64_t>(test_keys_.size());
    if (n == total) {
      op.keys = test_keys_;
    } else {
      for (int64_t i = 0; i < n; ++i) {
        op.keys.push_back(
            test_keys_[static_cast<size_t>(rng.uniform_int(total))]);
      }
    }
    return op;
  }

  // `count` ops with an exact predict share, in seeded random order.
  std::vector<Op> draw(int64_t count, Rng& rng) {
    const int64_t predicts = static_cast<int64_t>(
        std::llround(static_cast<double>(count) * w_.predict_frac));
    std::vector<uint8_t> is_predict(static_cast<size_t>(count), 0);
    std::fill(is_predict.begin(), is_predict.begin() + predicts, 1);
    rng.shuffle(is_predict);
    std::vector<Op> ops;
    ops.reserve(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      const int64_t s = draw_session(rng);
      ops.push_back(make(s, is_predict[static_cast<size_t>(i)]
                                ? Kind::kPredict
                                : Kind::kObserve,
                         rng));
    }
    return ops;
  }

 private:
  const WorkloadSpec& w_;
  const std::vector<ImageKey>& test_keys_;
  std::vector<double> weights_;
  std::vector<int64_t> next_batch_;
};

}  // namespace

Inputs make_inputs(const WorkloadSpec& w, uint64_t seed, double open_seconds,
                   int64_t closed_count) {
  Inputs in;
  in.data = served_dataset();
  const auto test_keys = cham::data::all_test_keys(in.data);

  // Private per-session training streams: distinct orderings of the pool.
  for (int64_t s = 0; s < w.sessions; ++s) {
    cham::data::StreamConfig sc;
    sc.seed = cham::split_seed(seed, 1000 + static_cast<uint64_t>(s));
    in.streams.push_back(
        cham::data::DomainIncrementalStream(in.data, sc).batches());
  }

  OpDrawer drawer(w, test_keys);
  Rng warm_rng = rng_for(seed, 1);
  if (w.prepop_delta_observes > 0) {
    for (int64_t s = 0; s < w.sessions; ++s) {
      for (int64_t i = 0; i < kWarmObserves + w.prepop_delta_observes; ++i) {
        in.prepop.push_back(drawer.make(s, Kind::kObserve, warm_rng));
      }
      in.prepop.push_back(drawer.make(s, Kind::kPredict, warm_rng));
    }
    // Warm the wire path on the coldest sessions only, so the hot ones
    // still hold their op-log deltas when measurement starts.
    for (int64_t s = w.sessions - w.max_resident; s < w.sessions; ++s) {
      in.warmup.push_back(drawer.make(s, Kind::kPredict, warm_rng));
    }
  } else {
    for (int64_t s = 0; s < w.sessions; ++s) {
      for (int64_t i = 0; i < kWarmObserves; ++i) {
        in.warmup.push_back(drawer.make(s, Kind::kObserve, warm_rng));
      }
      in.warmup.push_back(drawer.make(s, Kind::kPredict, warm_rng));
    }
  }

  Rng open_rng = rng_for(seed, 2);
  const int64_t open_count = static_cast<int64_t>(
      std::llround(w.rate_per_s * open_seconds));
  in.open_loop = drawer.draw(open_count, open_rng);
  // Poisson arrivals: exponential gaps at the workload rate.
  double t = 0;
  for (Op& op : in.open_loop) {
    t += -std::log(1.0 - open_rng.uniform()) / w.rate_per_s;
    op.due_s = t;
  }

  Rng closed_rng = rng_for(seed, 3);
  in.closed_loop = drawer.draw(closed_count, closed_rng);
  return in;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty() || !(q > 0.0 && q < 1.0)) {
    throw std::runtime_error("percentile: no samples or q outside (0, 1)");
  }
  const std::size_t n = v.size();
  // Nearest rank: the k-th smallest, k = ceil(q * n) (1-based). The epsilon
  // keeps exact products such as 0.99 * 1000 from rounding up a rank.
  std::size_t k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  k = std::clamp<std::size_t>(k, 1, n);
  if (q > 0.5 && n - k < 10) {
    throw std::runtime_error(
        "percentile: p" + std::to_string(q * 100) + " of " +
        std::to_string(n) + " samples has only " + std::to_string(n - k) +
        " beyond it (need >= 10)");
  }
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   v.end());
  return v[k - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double tail_quantile(std::size_t n) {
  for (double q : {0.99, 0.95, 0.90}) {
    const auto k = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    if (n >= 1 && n - std::min(n, k) >= 10) return q;
  }
  throw std::runtime_error("tail_quantile: " + std::to_string(n) +
                           " samples support no tail >= p90 (need >= 100)");
}

double windowed_percentile(const std::vector<double>& v, double q) {
  constexpr std::size_t kMinWindow = 100, kMaxWindows = 5;
  const std::size_t k =
      std::clamp<std::size_t>(v.size() / kMinWindow, 1, kMaxWindows);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < k; ++w) {
    const auto at = [&](std::size_t j) {
      return v.begin() + static_cast<std::ptrdiff_t>(j * v.size() / k);
    };
    per_window.push_back(percentile(std::vector<double>(at(w), at(w + 1)), q));
  }
  return median(std::move(per_window));
}

}  // namespace perfbench
