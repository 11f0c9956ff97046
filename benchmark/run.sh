#!/usr/bin/env bash
# Build and run the repository's end-to-end benchmark.
#
#   bash benchmark/run.sh [--workload fleet|paper|lifecycle] [--seed N]
#                         [--trace [0|1]] [--seconds 25]
#
# Builds caee_bench, caee_serve and caee_train in Release mode into
# build-bench/ at the repository root (tests and benches off, so no
# download happens), then runs one workload, or all three when --workload
# is omitted. Each run prints `workload metric value unit` lines and, as
# its last line, one JSON object; results, logs and cached artifacts go to
# bench_results/. The exit code is non-zero when the build or any
# correctness check fails. benchmark/README.md explains the output.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-bench"
results="$root/bench_results"

usage() {
  echo "usage: run.sh [--workload fleet|paper|lifecycle] [--seed N]" \
       "[--trace [0|1]] [--seconds 25]" >&2
  exit 2
}

workload="" seed=1 trace=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) [ $# -gt 1 ] || usage; workload="$2"; shift 2 ;;
    --seed) [ $# -gt 1 ] || usage; seed="$2"; shift 2 ;;
    # A run always measures 25 s (kRunSeconds in src/common.h, run_seconds
    # in BENCHMARK.json): the bounds were calibrated at that length only.
    # The flag is accepted so callers can state the length they expect.
    --seconds)
      [ $# -gt 1 ] || usage
      if [ "$2" != 25 ]; then
        echo "run.sh: runs are 25 s long, the length the bounds were" \
             "calibrated at; got --seconds $2" >&2
        exit 2
      fi
      shift 2 ;;
    --trace)
      if [ $# -gt 1 ] && [[ "$2" =~ ^[01]$ ]]; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    *) usage ;;
  esac
done

if [ ! -f "$root/CMakeLists.txt" ] || [ ! -d "$root/src" ]; then
  echo "run.sh: the repository sources are not next to benchmark/" >&2
  exit 2
fi
# A build tree configured from another checkout would run that checkout's
# binaries; refuse it rather than measure the wrong code.
cache="$build/CMakeCache.txt"
if [ -f "$cache" ] &&
   ! grep -qx "CMAKE_HOME_DIRECTORY:INTERNAL=$here" "$cache"; then
  echo "run.sh: $build was configured from another source tree;" \
       "remove it first" >&2
  exit 2
fi

mkdir -p "$results"
log="$results/build.log"
# Configure once; the build re-runs configuration when a CMakeLists changes.
if ! { { [ -f "$cache" ] ||
         cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release; } &&
       cmake --build "$build" -j "$(nproc)" --target caee_bench; } \
     >"$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "run.sh: build failed (full log: $log)" >&2
  exit 1
fi

run() {
  "$build/caee_bench" --workload "$1" --seed "$seed" --trace "$trace" \
    --results "$results"
}

if [ -n "$workload" ]; then
  run "$workload"
else
  status=0
  for w in fleet paper lifecycle; do
    run "$w" || status=1
  done
  exit "$status"
fi
