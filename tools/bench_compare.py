#!/usr/bin/env python3
"""Compare fresh BENCH_*.json artefacts against the committed baselines.

run_all.sh regenerates BENCH_kernels.json and BENCH_observe.json in the repo
root on every full run; this script diffs them against the snapshots committed under
bench/baselines/ and fails (exit 1) when any GATED metric regresses by more
than the threshold (default 25%). Non-gated metrics are printed in the same
trend table for context but never fail the run — wall-clock numbers on a
shared box are noisy, so only the metrics with stable headroom gate.

A missing baseline (new bench, first run after adding a metric) is reported
and passes: commit the fresh artefact to bench/baselines/ to arm the gate.

    python3 tools/bench_compare.py [--threshold 0.25]
        [--current-dir .] [--baseline-dir bench/baselines]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# (file, dotted path, direction, gated). Direction "higher" means larger is
# better (regression = drop); "lower" means smaller is better (regression =
# rise). Paths index dicts by key and lists by `name=value` selectors.
METRICS = [
    # Packed-GEMM throughput per head shape: the kernel acceptance surface.
    ("BENCH_kernels.json", "gemm[shape=head_pointwise_1x].packed_gflops",
     "higher", True),
    ("BENCH_kernels.json", "gemm[shape=head_pointwise_b32].packed_gflops",
     "higher", True),
    ("BENCH_kernels.json", "gemm[shape=head_eval_chunk].packed_gflops",
     "higher", True),
    ("BENCH_kernels.json", "gemm[shape=head_backward_dcol].packed_gflops",
     "higher", True),
    ("BENCH_kernels.json", "gemm[shape=head_backward_dw].packed_gflops",
     "higher", True),
    ("BENCH_kernels.json", "conv_pointwise.speedup", "higher", False),
    # Observe-path latency: p50 is the gated steady-state number; p99 is
    # tail-noise on a shared box.
    ("BENCH_observe.json", "observe_p50_ms", "lower", True),
    ("BENCH_observe.json", "observe_p99_ms", "lower", False),
    ("BENCH_observe.json", "bwd_over_fwd_ratio", "lower", False),
]


def lookup(doc, path):
    """Resolves `a.b[c=d].e` style paths; returns None when absent."""
    node = doc
    for part in path.split("."):
        selector = None
        if "[" in part:
            part, rest = part.split("[", 1)
            selector = rest.rstrip("]")
        if part:
            if not isinstance(node, dict) or part not in node:
                return None
            node = node[part]
        if selector is not None:
            key, _, want = selector.partition("=")
            if not isinstance(node, list):
                return None
            node = next(
                (e for e in node
                 if isinstance(e, dict) and str(e.get(key)) == want), None)
            if node is None:
                return None
    return node


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="gated regression threshold (fraction, default .25)")
    ap.add_argument("--current-dir", default=".")
    ap.add_argument("--baseline-dir", default="bench/baselines")
    args = ap.parse_args()

    current_docs, baseline_docs = {}, {}
    rows = []
    failures = []
    missing_baselines = set()

    for fname, path, direction, gated in METRICS:
        if fname not in current_docs:
            current_docs[fname] = load(os.path.join(args.current_dir, fname))
            baseline_docs[fname] = load(os.path.join(args.baseline_dir, fname))
        cur_doc, base_doc = current_docs[fname], baseline_docs[fname]
        if cur_doc is None:
            failures.append(f"{fname}: fresh artefact missing or unreadable")
            continue
        cur = lookup(cur_doc, path)
        if not isinstance(cur, (int, float)):
            failures.append(f"{fname}: metric {path} missing from fresh run")
            continue
        if base_doc is None:
            missing_baselines.add(fname)
            rows.append((fname, path, None, cur, None, direction, gated, "NEW"))
            continue
        base = lookup(base_doc, path)
        if not isinstance(base, (int, float)):
            rows.append((fname, path, None, cur, None, direction, gated, "NEW"))
            continue
        if base == 0:
            change = 0.0
        elif direction == "higher":
            change = (cur - base) / abs(base)  # negative = regression
        else:
            change = (base - cur) / abs(base)  # negative = regression
        status = "ok"
        if change < -args.threshold:
            status = "REGRESSED" if gated else "regressed (ungated)"
            if gated:
                failures.append(
                    f"{fname} {path}: {base:.4g} -> {cur:.4g} "
                    f"({change * 100:+.1f}%, gated limit "
                    f"-{args.threshold * 100:.0f}%)")
        rows.append(
            (fname, path, base, cur, change, direction, gated, status))

    print(f"bench_compare: threshold -{args.threshold * 100:.0f}% "
          f"on gated metrics\n")
    hdr = (f"{'metric':58} {'baseline':>12} {'current':>12} "
           f"{'change':>9} {'gate':>6}  status")
    print(hdr)
    print("-" * len(hdr))
    for fname, path, base, cur, change, direction, gated, status in rows:
        name = f"{fname.removeprefix('BENCH_').removesuffix('.json')}:{path}"
        base_s = f"{base:.4g}" if base is not None else "-"
        change_s = f"{change * 100:+.1f}%" if change is not None else "-"
        arrow = "^" if direction == "higher" else "v"
        print(f"{name:58} {base_s:>12} {cur:>12.4g} {change_s:>9} "
              f"{arrow:>4}{'G' if gated else ' ':>2}  {status}")

    for fname in sorted(missing_baselines):
        print(f"\nnote: no baseline for {fname} — commit the fresh artefact "
              f"to {args.baseline_dir}/ to arm its gates")

    if failures:
        print("\nbench_compare: FAIL")
        for f in failures:
            print(f"  {f}")
        return 1
    print("\nbench_compare: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
