#!/usr/bin/env bash
# Checks the benchmark package: formatting, lints, unit and CLI tests, and
# a smoke run (tiny windows, one repetition) that must check clean and
# print every metric BENCHMARK.json names, for every workload.
#
# Usage: bash perf/check.sh   (from any directory; needs cargo and python3)
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline -q

out=out/check
mkdir -p "$out"
cargo run --offline --release -q -- --smoke --json "$out/smoke.json" >"$out/smoke.txt"
cargo run --offline --release -q -- --smoke --trace --json "$out/trace.json" >"$out/trace.txt"

python3 - "$out" <<'EOF'
import json, sys

out = sys.argv[1]
bench = json.load(open("../BENCHMARK.json"))
workloads = [w["name"] for w in bench["workloads"]]
for run, key in (("smoke", "end_to_end"), ("trace", "per_layer")):
    lines = open(f"{out}/{run}.txt").read().splitlines()
    last = json.loads(lines[-1])
    assert last["correct"] and last["failed"] == 0, f"{run}: {lines[-1]}"
    printed = {tuple(l.split()[:2]) for l in lines[2:-1]}
    for m in bench[key]:
        for w in workloads:
            assert (w, m["name"]) in printed, f"{run}: {w} does not print {m['name']}"
            assert f"{w}.{m['name']}" in last["metrics"], f"{run}: last line lacks {w}.{m['name']}"
print(f"check.sh: {len(workloads)} workloads x every BENCHMARK.json metric printed, 0 failed ops")
EOF
