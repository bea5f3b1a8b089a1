#!/usr/bin/env python3
"""Self-test of the benchmark, at a tiny size.

    python3 perfbench/selftest.py

Run from the root of the repository; builds go to $CARGO_TARGET_DIR
(default `.bench_build`). Checks that:

* every workload, in both modes, emits every metric `BENCHMARK.json`
  lists, in its unit, and reports itself correct;
* every deterministic metric repeats exactly between two runs;
* in a traced run the layer self times plus `driver.unattributed_us`
  add up to `driver.run_wall_us`;
* in a directory holding only `BENCHMARK.json` and `perfbench/`, the
  benchmark exits non-zero without printing a result.

Exits non-zero when any check fails.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
SEED = 1

# Per-layer metrics read off the host clock or scheduler; every other
# per-layer metric is a deterministic count, share or virtual time.
WALL_CLOCK = {
    "simnet.parks_per_seed", "simnet.wakes_per_seed",
    "exec.us_per_trace_entry", "exec.us_per_park",
}
# Metrics that partition a traced run's wall time.
LAYERS = [
    "plan.generate_us", "exec.execute_us", "oracle.check_us",
    "oracle.replay_compare_us", "metrics.record_us", "spans.critical_path_us",
    "spans.span_tree_us", "sweep.coverage_us", "trace.fingerprint_us",
    "fuzz.mutate_us", "driver.unattributed_us",
]
DETERMINISTIC_E2E = {"msgs_per_seed", "resolve_vt_p50_ms", "resolve_vt_p99_ms"}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(workload, trace, *extra, cwd=ROOT, target=TARGET):
    """Runs the benchmark command; returns (exit code, result or None)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.2", "--trace", str(trace),
         "--size", "tiny", *extra],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    lines = run.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    return run.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, listed in [(0, spec["end_to_end"]), (1, spec["per_layer"])]:
            runs = [bench(workload, trace) for _ in range(2)]
            label = f"{workload} --trace {trace}"
            for code, result in runs:
                check(code == 0 and result is not None, f"{label}: exits 0 with a result")
                if result is None:
                    continue
                check(result["correct"], f"{label}: correct")
                check(result["attempted"] >= 1, f"{label}: attempted >= 1")
                missing = [m["name"] for m in listed
                           if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
                check(not missing, f"{label}: every listed metric in its unit {missing}")
            if any(r is None for _, r in runs):
                continue
            (_, a), (_, b) = runs
            names = DETERMINISTIC_E2E if trace == 0 else {
                m["name"] for m in listed
                if not m["name"].endswith(("_us", "_pct")) and m["name"] not in WALL_CLOCK
            }
            differ = [n for n in sorted(names)
                      if a["metrics"].get(n) != b["metrics"].get(n)]
            check(not differ, f"{label}: deterministic metrics repeat exactly {differ}")
            if trace == 1:
                for _, r in runs:
                    m = r["metrics"]
                    parts = sum(m[n]["value"] for n in LAYERS)
                    whole = m["driver.run_wall_us"]["value"]
                    check(math.isclose(parts, whole, rel_tol=1e-9),
                          f"{label}: layer self times {parts:.6f} us sum to run wall {whole:.6f} us")
                    check(m["driver.unattributed_us"]["value"] >= 0,
                          f"{label}: driver.unattributed_us >= 0")

    # Only BENCHMARK.json and perfbench/: the build fails, no result.
    bare = os.path.join(TARGET, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("target", "__pycache__"))
    code, result = bench("mixed-replay", 0, cwd=bare, target=os.path.join(bare, ".bench_build"))
    check(code != 0 and result is None, "without the repository it exits non-zero, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
