#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmark/spread.py [--workloads fleet,paper,lifecycle]
                                [--seeds 1-10] [--trace 0|1] [--json FILE]

Runs `benchmark/run.sh` once per (workload, seed), in that order. For
every metric it prints the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread, which is the
distance between the quartiles as a share of the median; for end-to-end
metrics it also prints the bound and whether the spread is within a third
of it. --json writes the same table as JSON (the form of baseline.json).
Exits non-zero if any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--json")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = {}
    failed = False
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
                   "--seed", str(seed), "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"{workload} seed {seed}: FAILED", flush=True)
                failed = True
                continue
            print(f"{workload} seed {seed}: " +
                  " ".join(f"{k}={v['value']:.6g}"
                           for k, v in result["metrics"].items()), flush=True)
            runs.append(result["metrics"])
        if len(runs) < 2:
            continue
        rows = {}
        for name, first in runs[0].items():
            values = [r[name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"unit": first["unit"], "median": median, "q1": q1,
                          "q3": q3, "spread": (q3 - q1) / abs(median)
                          if median else float("inf"), "runs": len(values)}
        table[workload] = rows

    print(f"\n{'workload':10} {'metric':28} {'median':>14} {'spread':>8} "
          f"{'bound':>6}")
    for workload, rows in table.items():
        for name, row in rows.items():
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                mark = "ok" if row["spread"] < bound / 3 else "WIDE"
            print(f"{workload:10} {name:28} {row['median']:14.6g} "
                  f"{row['spread']:8.2%} "
                  f"{'' if bound is None else format(bound, '.0%'):>6} {mark}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(table, f, indent=1, sort_keys=True)
            f.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
