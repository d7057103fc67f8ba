#!/usr/bin/env bash
# Runs the google-benchmark microbenchmark suite and writes one
# BENCH_<name>.json per binary (google-benchmark's JSON format), so runs can
# be diffed across commits. Plain-executable table reproductions
# (bench_table1 etc.) print deterministic counts and are not timed here.
#
# Usage: bench/run_benches.sh [BUILD_DIR] [OUT_DIR]
#   BUILD_DIR  cmake build tree containing bench/ (default: build)
#   OUT_DIR    where BENCH_*.json land (default: repo root)
#
# Environment:
#   BENCH_QUICK=1            pass --quick to the plain benches and cap the
#                            google-benchmark min time (CI smoke mode).
#   BENCH_CORE_BASELINE=FILE optional seed-build baseline for bench_core
#                            (`<name> <value>` lines); adds seed_ns /
#                            speedup_vs_seed / seed_peak_rss_kb_* fields.
#
# Every report carries a peak_rss_kb field: the plain-executable benches
# record getrusage(ru_maxrss) themselves; the google-benchmark binaries are
# run under a python3 wrapper that measures the child's ru_maxrss and
# injects the field into the emitted JSON.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"
OUT_DIR="${2:-$REPO_ROOT}"
QUICK="${BENCH_QUICK:-0}"

GBENCH_BINARIES=(bench_overhead bench_governor bench_flush bench_figure2 bench_figure3
                 bench_figure4)

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "error: $BUILD_DIR/bench not found; build first:" >&2
  echo "  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build" >&2
  exit 1
fi

QUICK_ARGS=()
GBENCH_QUICK_ARGS=()
if [ "$QUICK" = 1 ]; then
  QUICK_ARGS=(--quick)
  # Bare double, not "0.05s": the suffixed form needs google-benchmark
  # >= 1.8 while the bare form works everywhere (newer versions warn).
  GBENCH_QUICK_ARGS=(--benchmark_min_time=0.05)
fi

# Runs a google-benchmark binary and injects the child's peak RSS into its
# JSON report (python3 measures RUSAGE_CHILDREN around the wait).
run_gbench() {
  local BIN="$1" OUT="$2"
  shift 2
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$BIN" "$OUT" "$@" <<'PY'
import json, resource, subprocess, sys
bin_, out, *args = sys.argv[1:]
subprocess.run([bin_, f"--benchmark_out={out}",
                "--benchmark_out_format=json", *args],
               check=True, stdout=subprocess.DEVNULL)
kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
with open(out) as f:
    report = json.load(f)
report["peak_rss_kb"] = kb
with open(out, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
PY
  else
    "$BIN" --benchmark_format=json --benchmark_out="$OUT" \
           --benchmark_out_format=json "$@" >/dev/null
  fi
}

for NAME in "${GBENCH_BINARIES[@]}"; do
  BIN="$BUILD_DIR/bench/$NAME"
  if [ ! -x "$BIN" ]; then
    echo "skip: $NAME (not built)" >&2
    continue
  fi
  OUT="$OUT_DIR/BENCH_${NAME#bench_}.json"
  echo "== $NAME -> $OUT"
  run_gbench "$BIN" "$OUT" ${GBENCH_QUICK_ARGS[@]+"${GBENCH_QUICK_ARGS[@]}"}
done

# Parallel fan-out sweeps (jobs 1/2/4/8). Each bench writes a JSON fragment;
# the two fragments are merged into one BENCH_parallel.json report.
PARALLEL_TMP="$(mktemp -d)"
trap 'rm -rf "$PARALLEL_TMP"' EXIT
PARALLEL_FRAGS=()
for NAME in bench_multiseed bench_table1; do
  BIN="$BUILD_DIR/bench/$NAME"
  if [ ! -x "$BIN" ]; then
    echo "skip: $NAME --jobs-sweep (not built)" >&2
    continue
  fi
  FRAG="$PARALLEL_TMP/${NAME}.json"
  echo "== $NAME --jobs-sweep"
  "$BIN" --jobs-sweep --json "$FRAG" ${QUICK_ARGS[@]+"${QUICK_ARGS[@]}"} >/dev/null
  PARALLEL_FRAGS+=("$FRAG")
done

# Undo-engine comparison: COW snapshot vs journal branch undo. Verifies
# byte-identity first, then reports isolated undo cost (flat and deeply
# nested write-sets) and end-to-end analyses incl. intra-run parallel
# branches; records host_cpus.
BIN="$BUILD_DIR/bench/bench_snapshot"
if [ -x "$BIN" ]; then
  OUT="$OUT_DIR/BENCH_snapshot.json"
  echo "== bench_snapshot -> $OUT"
  "$BIN" --json "$OUT" ${QUICK_ARGS[@]+"${QUICK_ARGS[@]}"} >/dev/null
else
  echo "skip: bench_snapshot (not built)" >&2
fi

# Hot-path memory layout: dense structures vs in-binary replicas of the
# node-based layouts they replaced, end-to-end Table 1 cells with
# fingerprint hashes, plus per-workload peak RSS collected one process per
# workload via --rss-only and injected as a workload_rss array.
BIN="$BUILD_DIR/bench/bench_core"
if [ -x "$BIN" ]; then
  OUT="$OUT_DIR/BENCH_core.json"
  echo "== bench_core -> $OUT"
  CORE_ARGS=(--json "$OUT")
  if [ -n "${BENCH_CORE_BASELINE:-}" ]; then
    CORE_ARGS+=(--baseline "$BENCH_CORE_BASELINE")
  fi
  "$BIN" "${CORE_ARGS[@]}" ${QUICK_ARGS[@]+"${QUICK_ARGS[@]}"} >/dev/null
  RSS_ROWS="$PARALLEL_TMP/core_rss.txt"
  : > "$RSS_ROWS"
  for W in HeapChurn BranchHeavy Miniquery10; do
    "$BIN" --rss-only "$W" ${QUICK_ARGS[@]+"${QUICK_ARGS[@]}"} >> "$RSS_ROWS"
  done
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$OUT" "$RSS_ROWS" <<'PY'
import json, sys
out, rows = sys.argv[1:]
with open(out) as f:
    report = json.load(f)
report["workload_rss"] = [
    {"name": n, "peak_rss_kb": int(kb), "heap_cells": int(cells)}
    for n, kb, cells in (line.split() for line in open(rows) if line.strip())
]
with open(out, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
PY
  else
    echo "note: python3 missing, workload_rss rows not injected:" >&2
    cat "$RSS_ROWS" >&2
  fi
else
  echo "skip: bench_core (not built)" >&2
fi

# Incremental re-analysis: cold capture vs warm replay vs a one-statement
# edit against the persistent fact store. Verifies off/cold/warm/edit
# byte-identity and the >= 50% edit-replay bar before timing.
BIN="$BUILD_DIR/bench/bench_incremental"
if [ -x "$BIN" ]; then
  OUT="$OUT_DIR/BENCH_incremental.json"
  echo "== bench_incremental -> $OUT"
  "$BIN" --json "$OUT" ${QUICK_ARGS[@]+"${QUICK_ARGS[@]}"} >/dev/null
else
  echo "skip: bench_incremental (not built)" >&2
fi

# Service throughput: req/s cold vs cached at jobs 1/8, shed rate under
# overload. Real sockets on loopback.
BIN="$BUILD_DIR/bench/bench_serve"
if [ -x "$BIN" ]; then
  OUT="$OUT_DIR/BENCH_serve.json"
  echo "== bench_serve -> $OUT"
  "$BIN" --json "$OUT" ${QUICK_ARGS[@]+"${QUICK_ARGS[@]}"} >/dev/null
else
  echo "skip: bench_serve (not built)" >&2
fi

if [ "${#PARALLEL_FRAGS[@]}" -gt 0 ]; then
  OUT="$OUT_DIR/BENCH_parallel.json"
  echo "== parallel sweeps -> $OUT"
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$OUT" "${PARALLEL_FRAGS[@]}" <<'PY'
import json, sys
out, *frags = sys.argv[1:]
sweeps = [json.load(open(f)) for f in frags]
with open(out, "w") as f:
    json.dump({"sweeps": sweeps}, f, indent=2)
    f.write("\n")
PY
  else
    # No python3: concatenate the fragments into a JSON array by hand.
    {
      echo '{"sweeps": ['
      SEP=""
      for FRAG in "${PARALLEL_FRAGS[@]}"; do
        printf '%s' "$SEP"
        cat "$FRAG"
        SEP=","
      done
      echo ']}'
    } > "$OUT"
  fi
fi

echo "done: $(ls "$OUT_DIR"/BENCH_*.json 2>/dev/null | wc -l) reports in $OUT_DIR"
