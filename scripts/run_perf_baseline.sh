#!/usr/bin/env bash
# Policy perf-regression harness (docs/PERFORMANCE.md).
#
# Runs the policy micro-benchmarks (BM_MappingSolve, BM_PolicyFullSolve,
# BM_ObjectiveSolve, BM_BrokerRecompute) and either refreshes the committed
# baseline or gates against it:
#
#   scripts/run_perf_baseline.sh            # refresh bench/BENCH_policy.json
#   scripts/run_perf_baseline.sh --check    # fail on regression vs baseline
#
# The check is machine-independent: scripts/check_perf_regression.py
# compares in-run ratios (transportation vs Hungarian, objective overhead)
# and normalizes cross-run comparisons by the median per-benchmark speed
# ratio, so a uniformly slower machine passes while a >20% relative
# regression in any one benchmark fails. Every gate reads per-benchmark medians, so the
# run takes 15 short repetitions of each benchmark in random interleaved
# order: a slow spell of a shared host then lands on all benchmarks alike
# instead of on whichever one happened to be running. BUILD_DIR overrides
# the build tree (default: <repo>/build).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build}"
bench_bin="$build_dir/bench/bench_micro_decision"
baseline="$repo_root/bench/BENCH_policy.json"

if [[ ! -x "$bench_bin" ]]; then
  echo "run_perf_baseline: building bench_micro_decision in $build_dir" >&2
  cmake --build "$build_dir" --target bench_micro_decision -j "$(nproc)"
fi

current="$(mktemp)"
trap 'rm -f "$current"' EXIT

"$bench_bin" \
  --benchmark_filter='BM_MappingSolve|BM_PolicyFullSolve|BM_ObjectiveSolve|BM_BrokerRecompute' \
  --benchmark_format=json \
  --benchmark_repetitions=15 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_min_time=0.2 \
  --benchmark_report_aggregates_only=false \
  >"$current"

if [[ "${1:-}" == "--check" ]]; then
  exec python3 "$repo_root/scripts/check_perf_regression.py" \
    --baseline "$baseline" --current "$current"
fi

python3 "$repo_root/scripts/check_perf_regression.py" \
  --current "$current" --speedup-only
cp "$current" "$baseline"
echo "run_perf_baseline: wrote $baseline"
