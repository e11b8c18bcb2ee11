#!/usr/bin/env sh
# Records the performance trajectory: runs bench_simulator, the
# service-layer load generator, and the racing portfolio with JSON output
# so successive commits can be compared.
#
#   bench/run_benchmarks.sh [build_dir] [out_dir]
#
# Defaults: build_dir = build, out_dir = build_dir. Writes
# BENCH_simulator.json, BENCH_serve.json, and BENCH_portfolio.json into
# out_dir. Refuses to run against a non-Release build.
#
# Fails loudly: a missing binary, a crashing benchmark, or a run that
# produces empty/truncated JSON all abort with a nonzero exit and a
# message naming the culprit — a silent half-finished BENCH_*.json would
# otherwise poison cross-commit comparisons.
set -eu

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-$BUILD_DIR}"
mkdir -p "$OUT_DIR"

# Refuse non-Release builds: debug-recorded BENCH_*.json files are useless
# for cross-commit comparison but look exactly like real ones (this burned
# us once — an early BENCH_simulator.json carried
# "library_build_type": "debug").
if ! grep -q '^CMAKE_BUILD_TYPE:[^=]*=Release$' "$BUILD_DIR/CMakeCache.txt" 2>/dev/null; then
  echo "error: $BUILD_DIR is not a Release build (CMAKE_BUILD_TYPE must be" \
       "Release; configure with cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release)" >&2
  exit 1
fi

for bin in bench_simulator bench_serve bench_portfolio; do
  if [ ! -x "$BUILD_DIR/$bin" ]; then
    echo "error: $BUILD_DIR/$bin not built (need Google Benchmark;" \
         "configure with e.g. cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release)" >&2
    exit 1
  fi
done

# run_bench <binary> <out_json> [extra benchmark flags...]
# Runs one benchmark binary, then verifies the JSON it wrote actually
# contains a "benchmarks" array (Google Benchmark writes the output file
# incrementally, so a crash mid-run leaves a truncated file behind).
run_bench() {
  bench_bin="$1"
  out_json="$2"
  shift 2
  echo "running $bench_bin -> $out_json" >&2
  if ! "$BUILD_DIR/$bench_bin" "$@" \
      --benchmark_format=json \
      --benchmark_out="$out_json" \
      --benchmark_out_format=json; then
    echo "error: $bench_bin exited nonzero; $out_json is not trustworthy" >&2
    exit 1
  fi
  if ! grep -q '"benchmarks"' "$out_json" 2>/dev/null; then
    echo "error: $bench_bin wrote no benchmark results to $out_json" \
         "(empty or truncated JSON)" >&2
    exit 1
  fi
  # The context's "library_build_type" reports how *Google Benchmark* was
  # compiled (the distro package ships a debug build), so stamp the dsf
  # build type — guaranteed Release by the gate above — explicitly.
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$out_json" <<'PYEOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
doc.setdefault("context", {})["dsf_build_type"] = "Release"
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
PYEOF
  fi
}

# Median of 5 repetitions per row: one run of a flood swings by ±20 %.
run_bench bench_simulator "$OUT_DIR/BENCH_simulator.json" \
  --benchmark_repetitions=5 --benchmark_report_aggregates_only=true

# Service-layer load generation (closed-loop clients over sockets against
# an in-process server): hit/miss latency separation and the >= 10x
# cache-hit speedup acceptance ratio (DESIGN.md §5).
run_bench bench_serve "$OUT_DIR/BENCH_serve.json"

# Racing portfolio on the mixed two-class sweep: the mode=first p95 must
# beat the best single solver's p95 by >= 1.3x at width 4, and mode=all
# must never cost more than the best roster member (DESIGN.md §3).
run_bench bench_portfolio "$OUT_DIR/BENCH_portfolio.json"

# The portfolio's cost contract, gated: every row must report no infeasible
# unit and cost_ratio_worst <= 1. The p95_speedup ratio stays recorded but
# ungated, since runner noise would make a timing gate flaky.
if ! command -v python3 >/dev/null 2>&1; then
  echo "error: python3 is needed to check $OUT_DIR/BENCH_portfolio.json" >&2
  exit 1
fi
python3 - "$OUT_DIR/BENCH_portfolio.json" <<'PYEOF' || exit 1
import json, sys
rows = json.load(open(sys.argv[1]))["benchmarks"]
bad = [r["name"] for r in rows
       if r.get("infeasible") != 0 or not r.get("cost_ratio_worst", 2) <= 1]
if not rows or bad:
    sys.exit("error: %s breaks the portfolio contract (infeasible == 0 and "
             "cost_ratio_worst <= 1, DESIGN.md §3) in: %s"
             % (sys.argv[1], ", ".join(bad) or "no rows"))
PYEOF

# The suite wall: the committed bench/SUITE_baseline.json must still match
# a fresh run of the quality/latency matrix (dsf suite --check, DESIGN.md
# §9). A stale baseline — solver drift, corpus edits, roster changes — fails
# the whole benchmark recording loudly rather than letting BENCH_*.json
# trajectories ride on silently changed solver behavior. Regenerate
# deliberately with `$BUILD_DIR/dsf suite --record` after intended changes.
if [ ! -x "$BUILD_DIR/dsf" ]; then
  echo "error: $BUILD_DIR/dsf not built (cmake --build $BUILD_DIR --target dsf_cli)" >&2
  exit 1
fi
echo "running dsf suite --check against bench/SUITE_baseline.json" >&2
if ! "$BUILD_DIR/dsf" suite --check --out "$OUT_DIR/SUITE_fresh.json"; then
  echo "error: the suite baseline is stale; inspect $OUT_DIR/SUITE_fresh.json" \
       "and re-record deliberately with: $BUILD_DIR/dsf suite --record" >&2
  exit 1
fi

echo "wrote $OUT_DIR/BENCH_simulator.json, $OUT_DIR/BENCH_serve.json," \
     "$OUT_DIR/BENCH_portfolio.json, and $OUT_DIR/SUITE_fresh.json"
