#!/usr/bin/env bash
# Produce the repo's machine-readable benchmark artifacts.
#
# Default (fast) mode writes the tracked files at the repo root:
#   BENCH_micro_runtime.json - runtime-primitive microbenches, both
#                              hot paths (lockfree vs mutex)
#   BENCH_fig6.json          - the Figure 6 TFluxSoft speedup sweep
#   BENCH_trace_overhead.json - ddmcheck execution-tracing cost
#                              (traced vs untraced wall time)
#   BENCH_guard_overhead.json - ddmguard online-checking cost
#                              (off vs sampled:8 vs full)
#   BENCH_shards.json        - sharded TSU vs flat (hierarchical
#                              stealing) + native steal-stat
#                              reconciliation against ddmcheck
#   BENCH_dataplane.json     - managed data plane (bulk forwarding +
#                              affinity dispatch) vs implicit shared
#                              memory + native forwarding-stat
#                              reconciliation against ddmcheck
#   BENCH_executor.json      - resident multi-program executor: open-
#                              loop mixed-app throughput + tail latency
#                              vs per-request runtime spawn (gated
#                              >= 3x at 16 kernels)
#
# FULL=1 additionally runs every other bench binary into
# BENCH_<name>.json. Usage:
#   bench/run_benchmarks.sh [build_dir] [out_dir]
#
# Any bench binary exiting nonzero aborts the script (its partial JSON
# is deleted) instead of silently leaving a stale or truncated
# artifact behind. At the end, every committed BENCH_*.json in the
# output directory must have been (re)produced by this run - a tracked
# artifact no bench claims any more fails the script, so renames and
# removals cannot silently leave stale data behind.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-.}"
BENCH_DIR="$BUILD_DIR/bench"

MANIFEST=""

# run_bench <binary> <json_path> [extra args...]: run one bench with
# --json, deleting the artifact and failing loudly on nonzero exit.
run_bench() {
  local bin="$1" json="$2" rc
  shift 2
  echo "== $(basename "$bin") -> $json"
  "$bin" "$@" --json "$json" || {
    rc=$?
    rm -f "$json"
    echo "error: $(basename "$bin") exited with status $rc" >&2
    exit "$rc"
  }
  MANIFEST="$MANIFEST $(basename "$json")"
}

if [ ! -x "$BENCH_DIR/micro_runtime" ]; then
  echo "error: $BENCH_DIR/micro_runtime not built" \
       "(cmake --build $BUILD_DIR)" >&2
  exit 2
fi

# MIN_TIME trades precision for wall time (google-benchmark seconds
# per measurement); CI smoke uses a small value.
MIN_TIME="${MIN_TIME:-0.1}"

run_bench "$BENCH_DIR/micro_runtime" "$OUT_DIR/BENCH_micro_runtime.json" \
  --benchmark_min_time="$MIN_TIME"
run_bench "$BENCH_DIR/fig6_tfluxsoft" "$OUT_DIR/BENCH_fig6.json"
run_bench "$BENCH_DIR/trace_overhead" "$OUT_DIR/BENCH_trace_overhead.json"
run_bench "$BENCH_DIR/guard_overhead" "$OUT_DIR/BENCH_guard_overhead.json"
run_bench "$BENCH_DIR/ablation_shards" "$OUT_DIR/BENCH_shards.json"
run_bench "$BENCH_DIR/ablation_dataplane" "$OUT_DIR/BENCH_dataplane.json"
# SERVE_REQUESTS/SERVE_REPS/SERVE_GATE shrink the stream for CI smoke
# (the throughput gate is meaningless at smoke sizes - disable it with
# SERVE_GATE=0 there; the committed artifact comes from the defaults).
run_bench "$BENCH_DIR/request_driver" "$OUT_DIR/BENCH_executor.json" \
  --requests="${SERVE_REQUESTS:-120}" --reps="${SERVE_REPS:-3}" \
  --gate="${SERVE_GATE:-3.0}"

if [ "${FULL:-0}" = "1" ]; then
  run_bench "$BENCH_DIR/ablation_tub_tkt" \
    "$OUT_DIR/BENCH_ablation_tub_tkt.json" \
    --benchmark_min_time="$MIN_TIME"
  for b in fig5_tfluxhard fig5x86_tfluxhard fig7_tfluxcell \
           table1_workloads ablation_policy ablation_tsu_groups \
           ablation_tsu_latency ablation_unroll; do
    run_bench "$BENCH_DIR/$b" "$OUT_DIR/BENCH_$b.json"
  done
fi

# Manifest completeness: every committed BENCH_*.json must be claimed
# by one of the benches that just ran (FULL=1 artifacts are exempt
# unless they exist in OUT_DIR and this was not a FULL run - they are
# stale either way if nothing produced them).
missing=0
for f in "$OUT_DIR"/BENCH_*.json; do
  [ -e "$f" ] || continue
  case " $MANIFEST " in
    *" $(basename "$f") "*) ;;
    *)
      echo "error: $(basename "$f") is tracked but no bench in this run" \
           "produced it (stale artifact - rerun with FULL=1 or delete it)" >&2
      missing=1
      ;;
  esac
done
[ "$missing" = "0" ] || exit 1

echo "done."
