#!/usr/bin/env python3
"""Compare a bench --caee_json run against its committed baseline.

Usage: check_bench_regression.py BASELINE.json CURRENT.json [--max-ratio 2.0]

Handles both JSON schemas the benches emit:

  bench_micro_ops    entries keyed by (op, shape, threads, impl), timed by
                     ns_per_iter (BENCH_3.json baseline)
  bench_serve        entries keyed by (streams, max_batch, threads, impl),
                     timed by ns_per_window (BENCH_5.json baseline) — the
                     serving guard of the compiled-plan scorer (impl is
                     always "plan")
  bench_serve_scale  entries keyed by (streams, shards, max_batch, threads,
                     impl), timed by ns_per_window (BENCH_6.json baseline).
                     Additionally gates bytes_per_idle_stream at
                     --max-bytes-ratio: the per-stream memory footprint is
                     allocation arithmetic, not wall-clock, so it is stable
                     across runners and a tighter bound than time.
  bench_serve_policy entries keyed by (streams, max_batch, threads,
                     policy), timed by ns_per_window (BENCH_7.json
                     baseline) — static vs streaming-SPOT threshold
                     policies. Gates bytes_per_idle_stream too, so a
                     static-policy stream silently growing SPOT state (or
                     the SPOT slab bloating) fails the build.
  bench_serve_reload entries keyed by (streams, max_batch, threads,
                     phase), timed by ns_per_window (BENCH_8.json
                     baseline) — steady serving vs serving across
                     mid-stream artifact hot-swaps. The reload-phase rows
                     include the swap pauses in their wall time, so a
                     reload path that starts blocking scoring trips the
                     same 2x gate. max_push_ns and reload_pause_ns ride
                     along for inspection but are single-sample maxima
                     (one scheduler preemption moves them 100x), so they
                     are not gated.
  bench_serve_health entries keyed by (streams, max_batch, threads,
                     health), timed by ns_per_window (BENCH_10.json
                     baseline) — serving with model-health monitoring off
                     vs on. Gates bytes_per_idle_stream too, so the
                     health/canary slabs silently bloating (or monitoring
                     sneaking onto the allocation path) fails the build.

Fails (exit 1) if any entry present in both files got slower than
--max-ratio x the baseline time. The threshold is loose on purpose:
baselines are recorded on one machine and CI runs on another, so only real
regressions (an accidentally de-vectorised loop, a lost blocking path, a
scoring path that started allocating per call) should trip it, not
runner-to-runner variance.

Checksum drift is reported as a warning, not a failure: matmul/conv
checksums are exact-order IEEE sums and should match across machines, but
libm-backed ops (sigmoid, softmax, the trained ensembles bench_serve
scores) legitimately differ between glibc versions.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return doc.get("bench", "bench_micro_ops"), doc["entries"]


def entry_key(bench, e):
    # .get("impl"): schema-1 bench_serve files (the historical BENCH_4.json)
    # predate the impl field; keying them as impl="" makes a schema mismatch
    # a clean "missing from current run" diff instead of a KeyError.
    if bench == "bench_serve_scale":
        return (e["streams"], e["shards"], e["max_batch"], e["threads"],
                e["impl"])
    if bench == "bench_serve_policy":
        return (e["streams"], e["max_batch"], e["threads"], e["policy"])
    if bench == "bench_serve_reload":
        return (e["streams"], e["max_batch"], e["threads"], e["phase"])
    if bench == "bench_serve_health":
        return (e["streams"], e["max_batch"], e["threads"], e["health"])
    if bench == "bench_serve":
        return (e["streams"], e["max_batch"], e["threads"], e.get("impl", ""))
    return (e["op"], e["shape"], e["threads"], e["impl"])


def metric_name(bench):
    if bench in ("bench_serve", "bench_serve_scale", "bench_serve_policy",
                 "bench_serve_reload", "bench_serve_health"):
        return "ns_per_window"
    return "ns_per_iter"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--max-ratio", type=float, default=2.0)
    ap.add_argument("--max-bytes-ratio", type=float, default=1.25)
    args = ap.parse_args()

    base_bench, base_entries = load(args.baseline)
    cur_bench, cur_entries = load(args.current)
    if base_bench != cur_bench:
        print(
            f"bench mismatch: baseline is {base_bench}, current is "
            f"{cur_bench}",
            file=sys.stderr,
        )
        return 1
    metric = metric_name(base_bench)
    baseline = {entry_key(base_bench, e): e for e in base_entries}
    current = {entry_key(cur_bench, e): e for e in cur_entries}

    failures = []
    warnings = []
    compared = 0
    # A baseline entry the current run no longer emits means the path the
    # gate protects is no longer measured — that is a failure, not a skip.
    for k in sorted(baseline.keys() - current.keys(), key=str):
        failures.append(f"{k}: present in baseline but missing from current run")
    for k, cur in sorted(current.items(), key=lambda kv: str(kv[0])):
        base = baseline.get(k)
        if base is None:
            warnings.append(f"new entry (no baseline): {k}")
            continue
        compared += 1
        ratio = cur[metric] / base[metric]
        marker = ""
        if ratio > args.max_ratio:
            failures.append(
                f"{k}: {base[metric]:.0f} -> {cur[metric]:.0f} "
                f"{metric} ({ratio:.2f}x)"
            )
            marker = "  <-- REGRESSION"
        print(
            f"  {str(k):<48} "
            f"{base[metric]:>12.0f} -> {cur[metric]:>12.0f} "
            f"{metric} ({ratio:5.2f}x){marker}"
        )
        b_ck, c_ck = base["checksum"], cur["checksum"]
        denom = max(abs(b_ck), abs(c_ck), 1e-30)
        if abs(b_ck - c_ck) / denom > 1e-6:
            warnings.append(f"checksum drift at {k}: {b_ck!r} -> {c_ck!r}")
        # The scale bench's memory metric: per-idle-stream bytes growing
        # past the bound means the packed session store regressed (a
        # re-introduced per-session node allocation shows up here long
        # before it shows up in wall-clock).
        if "bytes_per_idle_stream" in base and "bytes_per_idle_stream" in cur:
            b_mem, c_mem = (base["bytes_per_idle_stream"],
                            cur["bytes_per_idle_stream"])
            mem_ratio = c_mem / b_mem
            if mem_ratio > args.max_bytes_ratio:
                failures.append(
                    f"{k}: {b_mem:.0f} -> {c_mem:.0f} bytes/idle-stream "
                    f"({mem_ratio:.2f}x > {args.max_bytes_ratio}x)"
                )

    for w in warnings:
        print(f"WARNING: {w}", file=sys.stderr)
    if failures:
        print(
            f"\n{len(failures)} failure(s) (regressed more than "
            f"{args.max_ratio}x, or missing from the current run):",
            file=sys.stderr,
        )
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    if compared == 0:
        print("no entries compared — empty or disjoint bench runs",
              file=sys.stderr)
        return 1
    print(f"\nOK: {compared} entries within {args.max_ratio}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
