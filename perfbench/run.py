#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles src/ from source) into
$CARGO_TARGET_DIR, default .bench_build; later calls only rebuild what
changed. Build output goes to stderr. Standard output carries the
benchmark's report, and its last line is the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end list (--trace 0) or its
per_layer list (--trace 1). At the default seed the run's deterministic
outputs are also compared against perfbench/expected.json; a mismatch makes
the run incorrect. Exits non-zero, printing no result, when the build or
the run fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 20190819
RUN_TIMEOUT_S = 170
RESULT_KEYS = ["correct", "attempted", "failed", "metrics"]


class BenchError(Exception):
    pass


def build_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no library sources under src/ next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build step failed: " + " ".join(cmd))
    return out


def metric_specs(mode_key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[mode_key]}


def parse_result(line, specs):
    """Parses and validates the program's result line against `specs`
    (name -> unit). Raises BenchError on any deviation."""
    try:
        result = json.loads(line)
    except ValueError as e:
        raise BenchError("result line is not JSON: %s" % e)
    if not isinstance(result, dict) or list(result) != RESULT_KEYS:
        raise BenchError("result keys must be exactly %s" % RESULT_KEYS)
    if not isinstance(result["correct"], bool):
        raise BenchError("correct must be a boolean")
    for key in ("attempted", "failed"):
        v = result[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise BenchError("%s must be a whole number" % key)
    if result["attempted"] < 1:
        raise BenchError("attempted must be at least 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(specs):
        raise BenchError("metrics must be exactly %s" % sorted(specs))
    for name, m in metrics.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            raise BenchError("metric %s must hold value and unit" % name)
        v = m["value"]
        if (not isinstance(v, (int, float)) or isinstance(v, bool)
                or not math.isfinite(v)):
            raise BenchError("metric %s has no finite value" % name)
        if m["unit"] != specs[name]:
            raise BenchError("metric %s: unit %r, expected %r"
                             % (name, m["unit"], specs[name]))
    return result


def parse_checks(lines):
    """The "check <name> <value>" lines of a report, as name -> float."""
    checks = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] == "check":
            checks[parts[1]] = float(parts[2])
    return checks


def compare_expected(workload, checks, expected):
    """Mismatches between a run's checks and the recorded values."""
    problems = []
    for name, want in sorted(expected.get(workload, {}).items()):
        got = checks.get(name)
        if got is None:
            problems.append("%s: not reported" % name)
        elif not math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0):
            problems.append("%s: got %r, recorded %r" % (name, got, want))
    return problems


def run(args):
    binary = os.path.join(build(["perfbench"]), "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("perfbench exited with code %d" % proc.returncode)
    specs = metric_specs("per_layer" if args.trace else "end_to_end")
    result = parse_result(lines[-1], specs)
    report = lines[:-1]
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "expected.json")) as f:
            expected = json.load(f)
        for problem in compare_expected(args.workload, parse_checks(report),
                                        expected):
            report.append("FAILED expected.json: " + problem)
            result["correct"] = False
            result["failed"] += 1
    print("\n".join(report))
    print(json.dumps(result), flush=True)


def selftest():
    out = build(["perfbench_selftest"])
    if subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode:
        raise BenchError("perfbench_selftest failed")
    tests = subprocess.run([sys.executable, "-m", "unittest", "-q",
                            "test_run"], cwd=HERE)
    if tests.returncode:
        raise BenchError("test_run.py failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    try:
        if args.selftest:
            selftest()
        elif not args.workload:
            parser.error("--workload is required")
        elif args.seed < 0 or not args.seconds > 0:
            parser.error("--seed must be >= 0 and --seconds > 0")
        else:
            run(args)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
