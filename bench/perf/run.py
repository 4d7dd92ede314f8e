#!/usr/bin/env python3
"""Builds perf_bench from source and runs one workload of it.

Run from the root of the repository:

    python3 bench/perf/run.py --workload olap_mix --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perf_bench (default .bench_build/) and
is incremental. perf_bench's own report goes to standard error; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics BENCHMARK.json names, with --trace 1 its per-layer
metrics. Exits 0 only when every answer and correctness gate passed.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["olap_mix", "scan_adhoc", "ingest_mix", "sharded_mix"]


def build(build_dir):
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perf_bench", "-j", "4"], stdout=sys.stderr, check=True)
    return build_dir / "perf_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = build_dir.resolve() / "perf_bench"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    out = build_dir / "out" / f"{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds:g}",
               f"--out={out}"]
    if args.trace:
        command.append(f"--trace={build_dir / 'trace'}")
    run = subprocess.run(command, stdout=sys.stderr)
    if not out.exists():
        print(f"run.py: perf_bench exited with {run.returncode} and no report",
              file=sys.stderr)
        return 1
    with open(out) as f:
        report = json.load(f)
    measured = report["per_layer" if args.trace else "end_to_end"]
    missing = [name for name in wanted if name not in measured]
    if missing:
        print(f"run.py: perf_bench did not report {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": report["correct"] and run.returncode == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: measured[name] for name in wanted},
    }))
    return 0 if run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
