#!/usr/bin/env bash
# Runs the kernel micro-benchmarks (emitting a machine-readable
# BENCH_3.json: op, shape, threads, impl, ns/iter, checksum), the
# multi-stream serving throughput table (BENCH_5.json: streams x max-batch
# windows/sec on the compiled plans, with the B=1 tail-latency case), and
# the two timing benches at 1 and 4 engine threads with a
# before/after table for the parallel execution engine.
#
# Usage: scripts/run_benches.sh [build_dir]
#   BENCH_JSON=path  where to write the micro-op entries
#                    (default: BENCH_3.json in the repo root; compare
#                    against the committed baseline with
#                    scripts/check_bench_regression.py)
#   SERVE_JSON=path  where to write the serving-throughput entries
#                    (default: BENCH_5.json in the repo root; same
#                    regression checker, BENCH_5.json baseline)
#   SCALE_JSON=path  where to write the sharded-engine scale entries
#                    (streams x shards with bytes-per-idle-stream;
#                    default: BENCH_6.json in the repo root; same
#                    regression checker, BENCH_6.json baseline)
#   POLICY_JSON=path where to write the threshold-policy entries
#                    (static vs streaming-SPOT verdicts, ns/window and
#                    bytes/idle-stream; default: BENCH_7.json in the repo
#                    root; same regression checker, BENCH_7.json baseline)
#   RELOAD_JSON=path where to write the hot-swap reload entries (steady vs
#                    reload phases with max-push and reload-pause times;
#                    default: BENCH_8.json in the repo root; same
#                    regression checker, BENCH_8.json baseline)
#   HEALTH_JSON=path where to write the model-health entries (monitoring
#                    off vs on, ns/window and bytes/idle-stream; default:
#                    BENCH_10.json in the repo root; same regression
#                    checker, BENCH_10.json baseline)
set -euo pipefail

BUILD_DIR="${1:-build}"
SCALE="${SCALE:-0.15}"
MODELS="${MODELS:-4}"
EPOCHS="${EPOCHS:-2}"
BENCH_JSON="${BENCH_JSON:-BENCH_3.json}"
SERVE_JSON="${SERVE_JSON:-BENCH_5.json}"
SCALE_JSON="${SCALE_JSON:-BENCH_6.json}"
POLICY_JSON="${POLICY_JSON:-BENCH_7.json}"
RELOAD_JSON="${RELOAD_JSON:-BENCH_8.json}"
HEALTH_JSON="${HEALTH_JSON:-BENCH_10.json}"

if [[ ! -x "${BUILD_DIR}/bench_training_time" ]]; then
  echo "error: ${BUILD_DIR}/bench_training_time not found." >&2
  echo "Build first: cmake -B ${BUILD_DIR} -S . -DCMAKE_BUILD_TYPE=Release \\" >&2
  echo "             && cmake --build ${BUILD_DIR} -j" >&2
  exit 1
fi

extract_seconds() {
  # Pull the CAE-Ensemble row's first numeric column out of the Table 7
  # output.
  awk '/^\| CAE-Ensemble +\|/ { gsub(/\|/, " "); print $2; exit }'
}

if [[ -x "${BUILD_DIR}/bench_micro_ops" ]]; then
  echo "=== Kernel micro-ops (naive vs optimized; writes ${BENCH_JSON}) ==="
  "${BUILD_DIR}/bench_micro_ops" --caee_json="${BENCH_JSON}"
  echo
else
  echo "(bench_micro_ops not built — google-benchmark missing; micro-op"
  echo " JSON skipped)"
  echo
fi

if [[ -x "${BUILD_DIR}/bench_serve" ]]; then
  echo "=== Multi-stream serving (streams x max-batch; writes ${SERVE_JSON};"
  echo "    scale table streams x shards with bytes/idle-stream; writes ${SCALE_JSON};"
  echo "    threshold-policy table static vs spot; writes ${POLICY_JSON};"
  echo "    hot-swap reload table steady vs reload; writes ${RELOAD_JSON};"
  echo "    model-health table off vs on; writes ${HEALTH_JSON}) ==="
  "${BUILD_DIR}/bench_serve" --models="${MODELS}" --epochs="${EPOCHS}" \
    --caee_json="${SERVE_JSON}" --caee_scale_json="${SCALE_JSON}" \
    --caee_policy_json="${POLICY_JSON}" --caee_reload_json="${RELOAD_JSON}" \
    --caee_health_json="${HEALTH_JSON}"
  echo
else
  echo "error: ${BUILD_DIR}/bench_serve not found (build first)" >&2
  exit 1
fi

echo "=== Parallel engine before/after (scale=${SCALE}, M=${MODELS}, epochs=${EPOCHS}) ==="
echo

echo "--- bench_training_time, threads=1 (sequential baseline) ---"
T1_OUT="$("${BUILD_DIR}/bench_training_time" \
  --scale="${SCALE}" --models="${MODELS}" --epochs="${EPOCHS}" --threads=1)"
echo "${T1_OUT}"
echo

echo "--- bench_training_time, threads=4 (parallel engine) ---"
T4_OUT="$("${BUILD_DIR}/bench_training_time" \
  --scale="${SCALE}" --models="${MODELS}" --epochs="${EPOCHS}" --threads=4)"
echo "${T4_OUT}"
echo

T1=$(echo "${T1_OUT}" | extract_seconds || true)
T4=$(echo "${T4_OUT}" | extract_seconds || true)

if [[ -x "${BUILD_DIR}/bench_inference_time" ]]; then
  echo "--- bench_inference_time, ensemble scoring at threads=1 vs threads=4 ---"
  "${BUILD_DIR}/bench_inference_time" \
    --benchmark_filter='ens_t[14]' --benchmark_min_time=0.2
  echo
else
  echo "(bench_inference_time not built — google-benchmark missing; skipped)"
fi

echo "=== Summary ==="
printf '%-34s %12s %12s %10s\n' "bench" "threads=1" "threads=4" "speedup"
if [[ -n "${T1}" && -n "${T4}" ]]; then
  SPEEDUP=$(awk -v a="${T1}" -v b="${T4}" 'BEGIN { if (b > 0) printf "%.2fx", a / b; else print "n/a" }')
  printf '%-34s %11ss %11ss %10s\n' \
    "bench_training_time (CAE-Ensemble)" "${T1}" "${T4}" "${SPEEDUP}"
else
  echo "bench_training_time: could not parse timings"
fi
echo "(inference per-window latencies: see the ens_t1 / ens_t4 rows above;"
echo " speedups require >1 hardware core — nproc=$(nproc) here)"
