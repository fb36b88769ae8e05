#!/usr/bin/env python3
"""Policy perf-regression gate (docs/PERFORMANCE.md).

Reads google-benchmark JSON for the policy micro-benchmarks and enforces:

1. Speedup gate (in-run, machine-independent): the collapsed
   transportation mapping must keep the full policy computation at least
   MIN_SPEEDUP times faster than the expanded Hungarian reference, for
   both the raw solve (BM_MappingSolve) and the end-to-end policy
   (BM_PolicyFullSolve). The bound is a ratchet: it rises as the fast
   path earns wins (both ratios measure >250x at the operating point;
   the gate holds a 5x margin below that, not the historical 5x floor).

2. Objective-overhead gate (in-run, machine-independent): every pluggable
   policy objective (BM_ObjectiveSolve/objective:k, k > 0) must stay
   within OBJECTIVE_OVERHEAD times the scalar mean objective
   (objective:0) — distribution scoring is only allowed to cost a bounded
   premium over the historical fast path.

3. Regression gate (vs the committed baseline, speed-normalized): per
   benchmark, compute current/baseline; the median ratio estimates the
   machine-speed difference, and any benchmark slower than
   median * (1 + TOLERANCE) is a relative regression and fails. A
   uniformly slower (or faster) machine therefore passes unchanged.

Exit status: 0 ok, 1 gate failed, 2 usage/IO error.
"""

import argparse
import json
import statistics
import sys

MIN_SPEEDUP = 50.0
TOLERANCE = 0.20
OBJECTIVE_OVERHEAD = 1.3

FAST = "mapping:0/workers:1"
REFERENCE = "mapping:1/workers:1"
OBJECTIVE_BENCH = "BM_ObjectiveSolve"
OBJECTIVE_FAST = "objective:0"


def load_times(path):
    """name -> median real_time over repetitions (raw runs only)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_perf_regression: cannot read {path}: {e}",
              file=sys.stderr)
        sys.exit(2)
    runs = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        runs.setdefault(b["name"], []).append(float(b["real_time"]))
    if not runs:
        print(f"check_perf_regression: no benchmark runs in {path}",
              file=sys.stderr)
        sys.exit(2)
    return {name: statistics.median(times) for name, times in runs.items()}


def check_speedup(times):
    ok = True
    for bench in ("BM_MappingSolve", "BM_PolicyFullSolve"):
        fast = reference = None
        for name, t in times.items():
            if not name.startswith(bench + "/"):
                continue
            if name.endswith(FAST) or (bench == "BM_MappingSolve"
                                       and name.endswith("mapping:0")):
                fast = t
            if name.endswith(REFERENCE) or (bench == "BM_MappingSolve"
                                            and name.endswith("mapping:1")):
                reference = t
        if fast is None or reference is None:
            print(f"check_perf_regression: {bench}: missing fast/reference "
                  "runs in the input", file=sys.stderr)
            ok = False
            continue
        speedup = reference / fast
        status = "ok" if speedup >= MIN_SPEEDUP else "FAIL"
        print(f"{bench}: transportation {speedup:.1f}x faster than "
              f"Hungarian (gate: >= {MIN_SPEEDUP:.0f}x) ... {status}")
        if speedup < MIN_SPEEDUP:
            ok = False
    return ok


def check_objective_overhead(times):
    mean_time = None
    others = {}
    for name, t in times.items():
        if not name.startswith(OBJECTIVE_BENCH + "/"):
            continue
        if name.endswith(OBJECTIVE_FAST):
            mean_time = t
        else:
            others[name] = t
    if mean_time is None or not others:
        print(f"check_perf_regression: {OBJECTIVE_BENCH}: missing "
              "mean/objective runs in the input", file=sys.stderr)
        return False
    ok = True
    for name in sorted(others):
        ratio = others[name] / mean_time
        status = "ok" if ratio <= OBJECTIVE_OVERHEAD else "FAIL"
        print(f"{name}: {ratio:.2f}x the mean objective "
              f"(gate: <= {OBJECTIVE_OVERHEAD:.1f}x) ... {status}")
        if ratio > OBJECTIVE_OVERHEAD:
            ok = False
    return ok


def check_regression(baseline, current):
    # The objective benches are gated by their in-run overhead ratio (gate
    # 2), which is machine-independent; their absolute times are too noisy
    # for the cross-run compare, so they are excluded here.
    shared = sorted(name for name in set(baseline) & set(current)
                    if not name.startswith(OBJECTIVE_BENCH + "/"))
    if not shared:
        print("check_perf_regression: baseline and current share no "
              "benchmarks", file=sys.stderr)
        return False
    ratios = {name: current[name] / baseline[name] for name in shared}
    machine = statistics.median(ratios.values())
    limit = machine * (1.0 + TOLERANCE)
    ok = True
    for name in shared:
        ratio = ratios[name]
        status = "ok" if ratio <= limit else "FAIL"
        print(f"{name}: {ratio:.2f}x baseline "
              f"(machine median {machine:.2f}x, limit {limit:.2f}x) "
              f"... {status}")
        if ratio > limit:
            ok = False
    only = sorted(set(baseline) ^ set(current))
    for name in only:
        where = "baseline" if name in baseline else "current"
        print(f"note: {name} present only in {where}; not compared")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", help="committed BENCH_policy.json")
    parser.add_argument("--current", required=True,
                        help="freshly produced benchmark JSON")
    parser.add_argument("--speedup-only", action="store_true",
                        help="enforce only the in-run speedup gate")
    args = parser.parse_args()

    current = load_times(args.current)
    ok = check_speedup(current)
    ok = check_objective_overhead(current) and ok
    if not args.speedup_only:
        if not args.baseline:
            parser.error("--baseline is required unless --speedup-only")
        ok = check_regression(load_times(args.baseline), current) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
