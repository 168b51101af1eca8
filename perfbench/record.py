#!/usr/bin/env python3
"""Measures one commit and appends its line to perfbench/history.jsonl.

    python3 perfbench/record.py --label <commit> [--seeds 10] [--first-seed 1]

Runs every workload of BENCHMARK.json for its run_seconds, once per seed
untraced (end-to-end metrics) and once traced (per-layer metrics, first
seed), then appends one JSON line: per workload the median, quartiles and
quartile spread (IQR over median) of each end-to-end metric, the same for
the figures before reference scaling ("unscaled"), and the traced run's
per-layer metrics, stamped with the build type, compiler, nproc and worker
threads.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    # Exit code 1 with a result line means failed checks, reported below.
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    tagged = {tag: json.loads(line[len(tag) + 2:]) for line in lines
              for tag in ("stamp", "unscaled") if line.startswith(tag + ": ")}
    return json.loads(lines[-1]), tagged


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    line = {"label": args.label, "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        samples, unscaled = {}, {}
        for seed in seeds:
            result, tagged = run(workload, seed, seconds, 0)
            if not result["correct"]:
                sys.exit("%s seed %d failed its checks" % (workload, seed))
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            for name, value in tagged["unscaled"].items():
                unscaled.setdefault(name, []).append(value)
        traced, _ = run(workload, args.first_seed, seconds, 1)
        if not traced["correct"]:
            sys.exit("%s traced run failed its checks" % workload)
        entry = {"stamp": tagged["stamp"],
                 "end_to_end": {n: summary(v) for n, v in samples.items()},
                 "unscaled": {n: summary(v) for n, v in unscaled.items()},
                 "per_layer": {n: m["value"] for n, m in traced["metrics"].items()}}
        line["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print("%-16s %-16s median %12.6g  spread %.3f  unscaled spread %.3f" % (
                workload, name, s["median"], s["spread"],
                entry["unscaled"][name]["spread"]), flush=True)
    with open(HERE / "history.jsonl", "a") as out:
        out.write(json.dumps(line, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
