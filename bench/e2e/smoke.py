#!/usr/bin/env python3
"""Smoke test for bench_perf_e2e.

Usage: smoke.py BENCH_BINARY BENCHMARK_JSON

Runs every workload BENCHMARK.json names with --ops 2, untraced and traced,
and checks that each run exits 0, that its last stdout line is a result
object reporting correct outputs, and that it carries exactly the metrics
(names and units) BENCHMARK.json lists for that mode.
"""
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor


def check_run(binary, workload, trace, expected):
    cmd = [binary, "--workload", workload, "--ops", "2", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        return ["%s: exit %d\n%s" % (where, proc.returncode, proc.stderr)]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        return ["%s: last line is not JSON (%s)" % (where, e)]
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (where, sorted(result)))
        return errors
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append("%s: correct=%s attempted=%s failed=%s" % (
            where, result["correct"], result["attempted"], result["failed"]))
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        errors.append("%s: metrics %s, expected %s" % (where, got, expected))
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            errors.append("%s: %s has no numeric value" % (where, name))
    # Every metric is also printed as a `name value unit` line.
    printed = {line.split()[0] for line in lines[:-1] if len(line.split()) == 3}
    missing = sorted(set(expected) - printed)
    if missing:
        errors.append("%s: no `name value unit` line for %s" % (where, missing))
    return errors


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    binary, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    runs = [(binary, w["name"], trace, expected)
            for w in spec["workloads"] for trace, expected in modes.items()]
    with ThreadPoolExecutor(max_workers=4) as pool:
        errors = sum(pool.map(lambda run: check_run(*run), runs), [])
    for e in errors:
        print("FAIL " + e)
    print("smoke: %d workloads x 2 modes, %d failures" % (len(spec["workloads"]), len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
