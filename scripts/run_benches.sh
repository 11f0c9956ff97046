#!/usr/bin/env bash
# Runs bench_serve, the in-process timing table (kernel rows and serving
# cells; bench/bench_serve.cc), and writes its {name, ns_per_window} rows
# to BENCH.json, the baseline that CI's micro-bench job compares a fresh
# run against with scripts/check_bench_regression.py (fails past 2x).
# Regenerate it on one host. The end-to-end benchmark (latency, capacity,
# training time and thread scaling) is benchmark/run.sh.
#
# Usage: scripts/run_benches.sh [build_dir]
#   BENCH_JSON=path  where to write the rows (default: BENCH.json)
#   MODELS=n EPOCHS=n  ensemble size and epochs of the serving cells
#                      (default 4 and 2, as CI runs it)
set -euo pipefail

BUILD_DIR="${1:-build}"
MODELS="${MODELS:-4}"
EPOCHS="${EPOCHS:-2}"
BENCH_JSON="${BENCH_JSON:-BENCH.json}"

if [[ ! -x "${BUILD_DIR}/bench_serve" ]]; then
  echo "error: ${BUILD_DIR}/bench_serve not found." >&2
  echo "Build first: cmake -B ${BUILD_DIR} -S . -DCMAKE_BUILD_TYPE=Release \\" >&2
  echo "             && cmake --build ${BUILD_DIR} -j --target bench_serve" >&2
  exit 1
fi

"${BUILD_DIR}/bench_serve" --models="${MODELS}" --epochs="${EPOCHS}" \
  --caee_json="${BENCH_JSON}"
