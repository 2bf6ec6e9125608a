// Hardware-relevant operation counters accumulated by every learner.
//
// The learners run functionally on the host; these counters record what the
// same algorithm would do on a device per processed image — MACs through the
// backbone f and head g, bytes moved to/from the on-chip replay store vs the
// off-chip DRAM, and any extra dense-linear-algebra FLOPs (SLDA's
// pseudo-inverse). The hardware cost models (src/hw) turn an OpStats into
// per-image latency and energy for each device profile.
//
// The byte totals are a ledger: the paper's latency/energy claims (Table II)
// rest on them, so the totals carry per-component subtotals that must
// reconcile — every byte charged to `onchip_bytes` / `offchip_bytes` by the
// Chameleon path is simultaneously charged to exactly one component, and
// check_invariants() verifies the decomposition. Learners that predate the
// component split (baselines) leave the components at zero, which the audit
// accepts (components sum to at most the total, never more).
#pragma once

#include <cstdint>
#include <string>

#include "util/check.h"

namespace cham::core {

struct OpStats {
  int64_t images = 0;  // stream images processed

  // Multiply-accumulates.
  double f_fwd_macs = 0;   // frozen backbone forward
  double g_fwd_macs = 0;   // head forward
  double g_bwd_macs = 0;   // head backward (weight + input grads)
  double extra_flops = 0;  // e.g. SLDA covariance update + pseudo-inverse

  // Replay-buffer traffic in bytes (reads + writes).
  double onchip_bytes = 0;   // short-term store (SRAM-resident)
  double offchip_bytes = 0;  // long-term store / unified buffer (DRAM)

  // On-chip components (Chameleon): the full-ST training sweep (Alg. 1
  // lines 5-7), the Eq. 4 winner written into ST (lines 8-10), and the ST
  // reads that feed the every-h LT promotion (lines 12-14).
  double onchip_st_replay_bytes = 0;
  double onchip_st_write_bytes = 0;
  double onchip_st_promote_bytes = 0;

  // Off-chip components (Chameleon): staged LT replay bursts (one DMA burst
  // per h batches), the LT entries streamed to form class prototypes
  // (Eq. 5), and LT insertions.
  double offchip_lt_burst_bytes = 0;
  double offchip_proto_bytes = 0;
  double offchip_lt_write_bytes = 0;

  // Weight traffic per step is identical across methods (paper Sec. IV-C);
  // modelled as off-chip reads of the head parameters once per training step.
  double weight_bytes = 0;

  OpStats& operator+=(const OpStats& o) {
    images += o.images;
    f_fwd_macs += o.f_fwd_macs;
    g_fwd_macs += o.g_fwd_macs;
    g_bwd_macs += o.g_bwd_macs;
    extra_flops += o.extra_flops;
    onchip_bytes += o.onchip_bytes;
    offchip_bytes += o.offchip_bytes;
    onchip_st_replay_bytes += o.onchip_st_replay_bytes;
    onchip_st_write_bytes += o.onchip_st_write_bytes;
    onchip_st_promote_bytes += o.onchip_st_promote_bytes;
    offchip_lt_burst_bytes += o.offchip_lt_burst_bytes;
    offchip_proto_bytes += o.offchip_proto_bytes;
    offchip_lt_write_bytes += o.offchip_lt_write_bytes;
    weight_bytes += o.weight_bytes;
    return *this;
  }

  // Charging helpers that keep the ledger balanced by construction: the same
  // addend lands in the total and in its component, so the decomposition is
  // exact in floating point (identical addends in identical order).
  void charge_onchip_st_replay(double bytes) {
    onchip_bytes += bytes;
    onchip_st_replay_bytes += bytes;
  }
  void charge_onchip_st_write(double bytes) {
    onchip_bytes += bytes;
    onchip_st_write_bytes += bytes;
  }
  void charge_onchip_st_promote(double bytes) {
    onchip_bytes += bytes;
    onchip_st_promote_bytes += bytes;
  }
  void charge_offchip_lt_burst(double bytes) {
    offchip_bytes += bytes;
    offchip_lt_burst_bytes += bytes;
  }
  void charge_offchip_proto(double bytes) {
    offchip_bytes += bytes;
    offchip_proto_bytes += bytes;
  }
  void charge_offchip_lt_write(double bytes) {
    offchip_bytes += bytes;
    offchip_lt_write_bytes += bytes;
  }

  double onchip_component_sum() const {
    return onchip_st_replay_bytes + onchip_st_write_bytes +
           onchip_st_promote_bytes;
  }
  double offchip_component_sum() const {
    return offchip_lt_burst_bytes + offchip_proto_bytes +
           offchip_lt_write_bytes;
  }

  // Per-image averages (guarding empty runs).
  double per_image(double total) const {
    return images > 0 ? total / static_cast<double>(images) : 0.0;
  }

  // Structural audit of the traffic ledger: every counter non-negative and
  // the component subtotals within the totals they decompose (learners that
  // charge through the charge_* helpers reconcile exactly; mixed charging
  // may legitimately leave unattributed traffic, never the reverse).
  util::AuditReport check_invariants() const {
    util::AuditReport report;
    const auto nonneg = [&report](double v, const char* name) {
      if (v < 0) {
        report.fail(std::string("OpStats: ") + name + " negative (" +
                    std::to_string(v) + ")");
      }
    };
    if (images < 0) report.fail("OpStats: images negative");
    nonneg(f_fwd_macs, "f_fwd_macs");
    nonneg(g_fwd_macs, "g_fwd_macs");
    nonneg(g_bwd_macs, "g_bwd_macs");
    nonneg(extra_flops, "extra_flops");
    nonneg(onchip_bytes, "onchip_bytes");
    nonneg(offchip_bytes, "offchip_bytes");
    nonneg(onchip_st_replay_bytes, "onchip_st_replay_bytes");
    nonneg(onchip_st_write_bytes, "onchip_st_write_bytes");
    nonneg(onchip_st_promote_bytes, "onchip_st_promote_bytes");
    nonneg(offchip_lt_burst_bytes, "offchip_lt_burst_bytes");
    nonneg(offchip_proto_bytes, "offchip_proto_bytes");
    nonneg(offchip_lt_write_bytes, "offchip_lt_write_bytes");
    nonneg(weight_bytes, "weight_bytes");
    // Tolerance covers double rounding if a learner charged components and
    // totals through independent accumulation orders.
    const double tol_on = 1e-6 * (onchip_bytes + 1.0);
    const double tol_off = 1e-6 * (offchip_bytes + 1.0);
    if (onchip_component_sum() > onchip_bytes + tol_on) {
      report.fail("OpStats: on-chip components (" +
                  std::to_string(onchip_component_sum()) +
                  ") exceed onchip_bytes (" + std::to_string(onchip_bytes) +
                  ")");
    }
    if (offchip_component_sum() > offchip_bytes + tol_off) {
      report.fail("OpStats: off-chip components (" +
                  std::to_string(offchip_component_sum()) +
                  ") exceed offchip_bytes (" + std::to_string(offchip_bytes) +
                  ")");
    }
    return report;
  }
};

}  // namespace cham::core
