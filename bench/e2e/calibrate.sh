#!/usr/bin/env bash
# Measures the run-to-run spread of every end-to-end metric, from which the
# bounds in BENCHMARK.json are set.
#
#   bench/e2e/calibrate.sh [RUNS] [SECONDS]
#
# Runs each workload RUNS times (default 10), each run in its own process
# with its own seed (1..RUNS), for SECONDS each (default: run_seconds from
# BENCHMARK.json).  Prints, per workload and metric, the median, the
# quartile spread (Q3 - Q1) / median and the range (max - min) / median;
# then, per metric, the bound those spreads call for: the largest over the
# workloads of max(3%, 3 x quartile spread, 1.5 x range), capped at 25%.
# Raw results go to .bench_build/calibrate.jsonl.
set -euo pipefail
cd "$(dirname "$0")/../.."

runs=${1:-10}
spec() { python3 -c "import json; s = json.load(open('BENCHMARK.json')); print($1)"; }
seconds=${2:-$(spec 's["run_seconds"]')}
workloads=$(spec '" ".join(w["name"] for w in s["workloads"])')

python3 bench/e2e/run.py --workload fabric_flowbased --ops 1 --trace 0 > /dev/null
out=.bench_build/calibrate.jsonl
: > "$out"
for w in $workloads; do
  for seed in $(seq 1 "$runs"); do
    result=$(python3 bench/e2e/run.py --workload "$w" --seed "$seed" --seconds "$seconds" \
             --trace 0 | tail -n 1)
    echo "{\"workload\": \"$w\", \"seed\": $seed, \"result\": $result}" >> "$out"
  done
done

python3 - "$out" <<'EOF'
import json, math, statistics, sys
from collections import defaultdict

values = defaultdict(lambda: defaultdict(list))
for line in open(sys.argv[1]):
    row = json.loads(line)
    if not row["result"]["correct"]:
        sys.exit("calibrate: %s seed %d failed verification" % (row["workload"], row["seed"]))
    for name, m in row["result"]["metrics"].items():
        values[name][row["workload"]].append(m["value"])

print("%-18s %-24s %14s %8s %8s" % ("metric", "workload", "median", "iqr%", "range%"))
for name, per_workload in values.items():
    need = 0.03
    for workload, v in per_workload.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        iqr, rng = (q3 - q1) / med, (max(v) - min(v)) / med
        need = max(need, 3 * iqr, 1.5 * rng)
        print("%-18s %-24s %14.6g %8.2f %8.2f" % (name, workload, med, 100 * iqr, 100 * rng))
    print("%-18s bound needed: %.2f" % (name, min(0.25, math.ceil(100 * need) / 100)))
EOF
