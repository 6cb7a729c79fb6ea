#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly and reports each metric's spread.

    python3 perfbench/spread.py [--workloads tile_geolife,circle_swarm] \\
        [--seeds 1-10] [--out results.json]

Runs every workload (default: all in BENCHMARK.json) once per seed with
--trace 0 and the benchmark's run_seconds. For each end-to-end metric it
prints the median over the runs and the spread: the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, next to the metric's bound from BENCHMARK.json. A spread above
a third of its bound is flagged (setup_s is flagged against its whole
bound). Beside them it prints bench.host_probe_ms, the benchmark-owned
host-speed probe, per run and with its own spread, so host drift can be
told apart from noise in the program.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE = re.compile(r"^\s*bench\.host_probe_ms\s+([0-9.eE+-]+)", re.M)


def parse_seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / med if med else float("nan"))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    raw = {}
    for workload in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout[-1500:]}{proc.stderr[-1500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            probe = PROBE.search(proc.stdout)
            result["host_probe_ms"] = float(probe.group(1)) if probe else float("nan")
            result["seed"] = seed
            runs.append(result)
            m = result["metrics"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']} "
                  f"ticks_per_s={m['ticks_per_s']['value']:.1f} "
                  f"host_probe_ms={result['host_probe_ms']:.3f}", flush=True)
        raw[workload] = runs
        if len(runs) < 2:
            continue
        print(f"\n{workload}: {len(runs)} runs")
        for name in runs[0]["metrics"]:
            med, share = spread([r["metrics"][name]["value"] for r in runs])
            bound = bounds.get(name)
            limit = bound if name == "setup_s" else bound / 3
            flag = "" if share <= limit else "  <-- above limit"
            print(f"  {name:24s} median {med:14.6g}  spread {share:7.4f}"
                  f"  bound {bound}{flag}")
        med, share = spread([r["host_probe_ms"] for r in runs])
        print(f"  {'bench.host_probe_ms':24s} median {med:14.6g}  spread {share:7.4f}"
              "  (diagnostic)\n", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
