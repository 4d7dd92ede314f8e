#!/usr/bin/env python3
"""Smoke test of perf_bench.

Runs every workload at sf 0.002 with 1 s windows, traced, and checks that
the run passes its correctness gates and prints every metric BENCHMARK.json
names for every workload it lists.

    smoke_test.py PERF_BENCH BENCHMARK_JSON
"""
import json
import subprocess
import sys
import tempfile


def main():
    binary, benchmark = sys.argv[1], sys.argv[2]
    with open(benchmark) as f:
        spec = json.load(f)
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        run = subprocess.run(
            [binary, "--smoke", "--workload=all", "--seed=1",
             f"--trace={tmp}/trace", f"--out={tmp}/perf.json"],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(run.stdout)
        sys.stderr.write(run.stderr)
        if run.returncode != 0:
            print(f"perf_bench exited with {run.returncode}")
            return 1
        with open(f"{tmp}/perf.json") as f:
            runs = json.load(f)["runs"]
    printed = set()
    for line in run.stdout.splitlines():
        fields = line.split()
        if len(fields) >= 3 and not line.startswith("#"):
            printed.add((fields[0], fields[1]))
    missing = [(w["name"], m["name"])
               for w in spec["workloads"]
               for m in spec["end_to_end"] + spec["per_layer"]
               if (w["name"], m["name"]) not in printed]
    for workload, metric in missing:
        print(f"missing: {workload} {metric}")
    if len(runs) != len(spec["workloads"]) or not all(r["correct"] for r in runs):
        print("not every workload ran correctly")
        return 1
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
