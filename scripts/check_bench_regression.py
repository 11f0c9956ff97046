#!/usr/bin/env python3
"""Compare a bench_serve --caee_json run against the committed BENCH.json.

Usage: check_bench_regression.py BASELINE.json CURRENT.json [--max-ratio 2.0]

Both files hold {"entries": [{"name": ..., "ns_per_window": ...}, ...]}
(bench/bench_serve.cc documents the row names). Fails (exit 1) if a row
present in both got slower than --max-ratio x its baseline time, if a
baseline row is missing from the current run, if either file names a row
twice, or if no row was compared. The ratio is loose on purpose: the
baseline is recorded on one machine and CI runs on another, so only a
real regression (a de-vectorised loop, a lost blocking path, a scoring
path that started allocating per call) should trip it.
"""

import argparse
import json
import sys


def rows(doc, label, failures):
    """Map name -> ns_per_window, recording duplicate names as failures."""
    out = {}
    for e in doc["entries"]:
        if e["name"] in out:
            failures.append(f"{e['name']}: named twice in {label}")
        out[e["name"]] = e["ns_per_window"]
    return out


def compare(baseline_doc, current_doc, max_ratio):
    """Return (failures, report lines) for one baseline/current pair."""
    failures = []
    baseline = rows(baseline_doc, "baseline", failures)
    current = rows(current_doc, "current run", failures)
    lines = []
    for name in sorted(baseline.keys() - current.keys()):
        failures.append(f"{name}: in the baseline but missing from the "
                        f"current run")
    for name in sorted(baseline.keys() & current.keys()):
        base, cur = baseline[name], current[name]
        ratio = cur / base
        marker = ""
        if ratio > max_ratio:
            failures.append(
                f"{name}: {base:.0f} -> {cur:.0f} ns ({ratio:.2f}x)")
            marker = "  <-- REGRESSION"
        lines.append(f"  {name:<52} {base:>12.0f} -> {cur:>12.0f} ns "
                     f"({ratio:5.2f}x){marker}")
    for name in sorted(current.keys() - baseline.keys()):
        lines.append(f"  {name:<52} {'new row, not gated':>28}")
    if not baseline.keys() & current.keys():
        failures.append("no rows compared: empty or disjoint runs")
    return failures, lines


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--max-ratio", type=float, default=2.0)
    args = ap.parse_args()
    with open(args.baseline) as f:
        baseline_doc = json.load(f)
    with open(args.current) as f:
        current_doc = json.load(f)

    failures, lines = compare(baseline_doc, current_doc, args.max_ratio)
    print("\n".join(lines))
    if failures:
        print(f"\n{len(failures)} failure(s) (slower than {args.max_ratio}x, "
              f"missing, duplicated, or nothing compared):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: every baseline row within {args.max_ratio}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
