#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-scale run of every workload.

Usage (from the repository root):

    python3 perfbench/selftest.py

Runs the benchmark's unit tests, then each workload in BENCHMARK.json at the
tiny scale for one second, once end to end (--trace 0) and once traced
(--trace 1). It asserts that every metric BENCHMARK.json names is printed with
its unit, in the report and in the JSON result line, and that the report
carries the run header and the ranking digest. The benchmark itself knows
which correctness checks each workload must run: it exits non-zero and
reports `"correct": false` when one did not run or failed, and the self-test
asserts it did neither. Exits non-zero on any failure.
"""

import json
import os
import subprocess
import sys


def report_metrics(lines):
    """`metric NAME VALUE UNIT ...` lines as {name: (value, unit)}."""
    found = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            found[parts[1]] = (float(parts[2]), parts[3])
    return found


def check_run(spec, workload, trace, env):
    failures = []
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    run = subprocess.run(command, capture_output=True, text=True, env=env, timeout=600)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        return [f"exit code {run.returncode}: {run.stderr.strip()[-500:]}"]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        failures.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    printed = report_metrics(lines)
    if sorted(result["metrics"]) != sorted(m["name"] for m in expected):
        failures.append(f"result metrics {sorted(result['metrics'])}")
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            failures.append(f"result metric {name}: {got}")
        if printed.get(name, (None, None))[1] != unit:
            failures.append(f"report metric {name}: {printed.get(name)}")
    for prefix in ("header threads_available=", "digest "):
        if not any(line.startswith(prefix) for line in lines):
            failures.append(f"report lacks a `{prefix.strip()}` line")
    return failures


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    unit = subprocess.run(["cargo", "test", "--release", "--offline", "-q", "--manifest-path",
                           os.path.join("perfbench", "Cargo.toml")], env=env)
    ok = unit.returncode == 0
    print(f"{'PASS' if ok else 'FAIL'} unit tests")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            failures = check_run(spec, workload, trace, env)
            print(f"{'FAIL' if failures else 'PASS'} {workload} --trace {trace}")
            for failure in failures:
                print(f"    {failure}")
            ok = ok and not failures
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
