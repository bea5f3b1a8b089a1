#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); every metric the run produced, and the spans
of a traced run, to `<target>/perfbench-out/`. The benchmark runs pinned
to one CPU. Its own report is passed through; the last line printed is
one JSON object with `correct`, `attempted`, `failed` and the metrics
`BENCHMARK.json` lists for the mode: its `end_to_end` metrics with
`--trace 0`, its `per_layer` metrics with `--trace 1`. A listed metric
the run did not produce, or produced in another unit, makes the result
incorrect.

Extra arguments (`--size tiny`) are passed to the benchmark unchanged.
Exits non-zero without a result when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    """Builds the release binary; returns its path."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def select(result, listed):
    """The result line: only the listed metrics, each checked for presence
    and unit."""
    metrics = {}
    problems = list(result.get("problems", []))
    for entry in listed:
        name, unit = entry["name"], entry["unit"]
        got = result["metrics"].get(name)
        if got is None:
            problems.append(f"{name} was not produced")
        elif got["unit"] != unit:
            problems.append(f"{name} is in {got['unit']}, BENCHMARK.json says {unit}")
        else:
            metrics[name] = got
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    return {
        "correct": bool(result["correct"]) and not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv):
    parser = argparse.ArgumentParser(description="Builds and runs one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, _extra = parser.parse_known_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target)
    out_dir = os.path.join(target, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    # One CPU for the whole run. The closed loop runs one thing at a time,
    # and on a virtual machine a handoff to a thread on another, idle
    # vCPU waits for the host to wake that vCPU: pinned, handoffs are
    # local switches, and throughput is about 1.5x higher and its
    # run-to-run spread about a third (measured on a 2-vCPU VM).
    cpu = min(os.sched_getaffinity(0))
    try:
        run = subprocess.run(
            [binary, *argv, "--out-dir", out_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
    except subprocess.TimeoutExpired:
        fail(f"the run took longer than {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"the benchmark exited with {run.returncode}")
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("the benchmark printed no result")
    for line in lines[:-1]:
        print(line)
    # Every metric the run produced, listed or not, for later reading.
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(select(result, listed)))


if __name__ == "__main__":
    main(sys.argv[1:])
