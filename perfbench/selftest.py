#!/usr/bin/env python3
"""Fast self-test of the benchmark: every workload at the tiny scale.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json it runs perfbench/run.py with
--scale tiny, once untraced and once traced, and checks that the run
exits 0, that its last stdout line is the JSON result with exactly the
contract's keys, that correctness holds with no failed session, and that
the metrics are exactly the end-to-end (untraced) or per-layer (traced)
metrics BENCHMARK.json names, with their units. It also checks that a
copy holding only BENCHMARK.json and perfbench/ exits non-zero without
printing a result. Takes about a minute after the first build.
"""
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Supervisor counters that must stay 0 while the cluster serves. The
# transport's `retries` (absorbed EINTR/EAGAIN) is normal under load.
RECOVERY_COUNTERS = ["engine.cluster.restarts", "engine.cluster.checksum_failures",
                     "engine.cluster.heartbeat_misses", "engine.cluster.deadline_hits"]


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_result(spec, workload, trace, proc, errors):
    tag = f"{workload} trace={trace}"
    if proc.returncode != 0:
        errors.append(f"{tag}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{tag}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{tag}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}")
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in want):
        missing = {m["name"] for m in want} ^ set(got)
        errors.append(f"{tag}: metric names differ from BENCHMARK.json: {sorted(missing)}")
        return
    for m in want:
        value, unit = got[m["name"]]["value"], got[m["name"]]["unit"]
        if unit != m["unit"] or not math.isfinite(value):
            errors.append(f"{tag}: {m['name']} = {value} {unit}")
        if not trace and value == 0:
            errors.append(f"{tag}: end-to-end metric {m['name']} is 0")
    if not trace:
        return
    if workload == "circle_swarm" and got["engine.store.spilled_per_ktick"]["value"] <= 0:
        errors.append(f"{tag}: the spill budget did not spill")
    if workload == "sum_roadnet_sharded" and got["engine.cluster.drain_s"]["value"] <= 0:
        errors.append(f"{tag}: no cluster drain was traced")
    for name in RECOVERY_COUNTERS:
        if got[name]["value"] != 0:
            errors.append(f"{tag}: {name} = {got[name]['value']}: the run measured "
                          "recovery instead of serving")


def check_bare_copy(errors):
    """A directory with only BENCHMARK.json and perfbench/ must fail cleanly."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tile_geolife",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"bare copy: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, w["name"], trace, run(ROOT, w["name"], trace), errors)
            print(f"ran {w['name']} trace={trace}", flush=True)
    check_bare_copy(errors)
    for e in errors:
        print("FAIL", e)
    print("selftest:", "FAILED" if errors else "passed")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
