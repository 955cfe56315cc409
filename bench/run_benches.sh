#!/usr/bin/env bash
# Benchmark runner: thread-sweeps the fan-out benches, runs the stats-
# warehouse plan-choice A/B sweeps (cold vs warmed optimizer) and the plan
# lint size sweep, and merges the per-bench JSON reports (including the
# registry counters/gauges attributed to each run) into:
#
#   BENCH_PR5.json    the thread-sweep subset (kept for older tooling)
#   BENCH_MULTI.json  the batched multi-query subset (CI asserts on it)
#   BENCH.json        everything above plus the plan-choice and lint
#                     sweeps; CI's plan-choice regression gate and lint
#                     scaling gate read this one
#
#   bash bench/run_benches.sh
#   BUILD_DIR=build-release OUT=/tmp/sweep.json bash bench/run_benches.sh
set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
OUT="${OUT:-BENCH_PR5.json}"
MERGED_OUT="${MERGED_OUT:-BENCH.json}"
MIN_TIME="${MIN_TIME:-0.05}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
mkdir -p "$tmpdir/sweep" "$tmpdir/stats" "$tmpdir/lint"

"$BUILD_DIR/bench/bench_fig4_split" \
  --benchmark_filter='BM_Fig4_ForestFanOutThreads' \
  --benchmark_min_time="$MIN_TIME" \
  --json "$tmpdir/sweep/fig4_fanout.json"

"$BUILD_DIR/bench/bench_fig4_split" \
  --benchmark_filter='BM_Fig4_CertifiedApplyThreads' \
  --benchmark_min_time="$MIN_TIME" \
  --json "$tmpdir/sweep/apply_fanout.json"

"$BUILD_DIR/bench/bench_fig4_split" \
  --benchmark_filter='BM_Fig4_MutatingApplyThreads' \
  --benchmark_min_time="$MIN_TIME" \
  --json "$tmpdir/sweep/mutating_fanout.json"

"$BUILD_DIR/bench/bench_tree_kleene" \
  --benchmark_filter='BM_Kleene_FanOutThreads' \
  --benchmark_min_time="$MIN_TIME" \
  --json "$tmpdir/sweep/kleene_fanout.json"

"$BUILD_DIR/bench/bench_snapshot" \
  --benchmark_filter='BM_Snapshot_' \
  --benchmark_min_time="$MIN_TIME" \
  --json "$tmpdir/sweep/snapshot_overhead.json"

"$BUILD_DIR/bench/bench_multi_query" \
  --benchmark_filter='BM_MultiQuery_' \
  --benchmark_min_time="$MIN_TIME" \
  --json "$tmpdir/sweep/multi_query.json"

# Standalone copy: CI asserts the batched-vs-sequential speedup from it.
cp "$tmpdir/sweep/multi_query.json" "${MULTI_OUT:-BENCH_MULTI.json}"

# Plan-choice A/B: forced baselines bracket the optimizer's pick; Cold
# decides from static constants, Warmed from learned runtime statistics.
"$BUILD_DIR/bench/bench_split_rewrite" \
  --benchmark_filter='BM_PlanChoice_' \
  --benchmark_min_time="$MIN_TIME" \
  --json "$tmpdir/stats/plan_choice.json"

"$BUILD_DIR/bench/bench_fig5_rewrite" \
  --benchmark_filter='BM_Fig5_PlannedMatch_' \
  --benchmark_min_time="$MIN_TIME" \
  --json "$tmpdir/stats/fig5_planned.json"

# Plan lint over ~2k- and ~200k-person forests: the time must not follow
# the database size.
"$BUILD_DIR/bench/bench_lint_plan" \
  --benchmark_filter='BM_LintPlan_' \
  --benchmark_min_time="$MIN_TIME" \
  --json "$tmpdir/lint/lint_plan.json"

merge() {
  python3 - "$1" "$2" <<'EOF'
import glob, json, os, sys

indir, out = sys.argv[1], sys.argv[2]
merged = {"benchmarks": [], "sources": []}
for path in sorted(glob.glob(os.path.join(indir, "**", "*.json"),
                             recursive=True)):
    doc = json.load(open(path))
    src = os.path.splitext(os.path.basename(path))[0]
    merged["sources"].append(src)
    for rec in doc["benchmarks"]:
        rec["source"] = src
        merged["benchmarks"].append(rec)
    # Final process-wide registry state of the last bench binary run.
    for key in ("counters", "gauges", "histograms"):
        if key in doc:
            merged[key] = doc[key]
assert merged["benchmarks"], "no benchmark records collected"
with open(out, "w") as f:
    json.dump(merged, f, indent=1)
    f.write("\n")
print(f"wrote {out}: {len(merged['benchmarks'])} records "
      f"from {len(merged['sources'])} benches")
EOF
}

merge "$tmpdir/sweep" "$OUT"
merge "$tmpdir" "$MERGED_OUT"
