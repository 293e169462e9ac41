#!/usr/bin/env python3
"""Runs one workload of the inflow benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark crate (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), runs the workload
in a process of its own and prints its result as the last line of
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
with `--trace 1` its per-layer metrics; the traced run also writes its
spans to $CARGO_TARGET_DIR/perfbench-spans/. Exits non-zero, printing no
result, when the build or the run fails or a metric is missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; only the first run in a checkout, which
# builds, may take longer. The limit counts from the end of the build
# (a no-op build takes about a second).
DEADLINE_S = 175


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()
    trace = args.trace == "1"

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL,
    )
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    exe = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--work-dir", work]
    if trace:
        spans = os.path.join(target, "perfbench-spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{args.workload}-{args.seed}.jsonl")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
                             timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in time")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if run.returncode != 0:
        fail(f"{args.workload} exited with code {run.returncode}")

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    expected = expected_metrics(trace)
    missing = [m for m in expected if m not in result["metrics"]]
    if missing:
        fail(f"missing metrics {missing}")
    result["metrics"] = {m: result["metrics"][m] for m in expected}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
