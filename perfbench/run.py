#!/usr/bin/env python3
"""Cost-ledger benchmark: host time and memory to simulate canonical runs.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench_sim (and the simulator library from src/) on first use,
then runs the workload in child processes:

  --trace 0  set-up samples + REPEATS untraced repeats of the same seed,
             each measuring seconds / REPEATS: prints every end-to-end
             metric (host time unless marked simulated) as the median over
             the repeats. Repeats must agree on the simulated fingerprint.
  --trace 1  additionally the traced run of the same seed and window (and,
             for the sharded workload, its untraced single-queue and
             multi-thread twins): prints every per-layer metric, the ledger
             rows and trace.overhead, and requires the same events_executed
             and simulated fingerprint as the untraced run and ledger rows
             that fit in the traced wall.

Both modes check the simulation's invariants. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. A violated check
is a failed operation and makes the exit code non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ledger  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kvs_etc", "rack_ondemand", "fabric_faulted")
SHARDED = ("fabric_faulted",)
# A neighbour on a shared host can slow a whole process for seconds; the
# median over short repeats rejects such a repeat where one long run cannot.
REPEATS = 5
EXTRA_SETUPS = 2  # Set-up-only processes besides the repeats' own set-ups.
CHILD_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds perfbench_sim; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench_sim"


def sim(binary, workload, seed, seconds, mode, extra=()):
    """Runs perfbench_sim once and returns its JSON (last stdout line)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    binary = build()
    window_s = args.seconds / REPEATS
    setups = [sim(binary, args.workload, args.seed, window_s, "setup")
              for _ in range(EXTRA_SETUPS)]
    runs = [sim(binary, args.workload, args.seed, window_s, "run") for _ in range(REPEATS)]
    run = runs[0]

    checks = []

    def check_twin(name, other):
        diff = ledger.fingerprint_mismatches(run["fingerprint"], other["fingerprint"])
        checks.append(("%s is event-identical to the first repeat" % name, not diff,
                       "differs on " + ", ".join(diff) if diff else "same"))
        checks.extend(ledger.check_invariants(other))

    checks.extend(ledger.check_invariants(run))
    for i, r in enumerate(runs[1:], start=1):
        check_twin("repeat %d" % i, r)
    _, _, level, count = ledger.slice_stats(run)

    stamp = {k: run[k] for k in ("build_type", "compiler", "nproc", "worker_threads")}
    print("workload %s seed %d" % (args.workload, args.seed))
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print("%d repeats, each running %.3f simulated s in %d slices of %g ms "
          "(%d client packets, %d events); %d slices measured, the others "
          "follow a host reference sample" % (
              REPEATS, run["sim_s_measured"], len(run["slice_wall_ns"]),
              run["slice_sim_ms"], run["pkts_measured"], run["events_measured"], count))
    print("slice_ms_p99 is the p%.2f slice (>= 10 of %d slices beyond it)" % (
        100 * level, count))
    print("fingerprint: " + json.dumps(run["fingerprint"], sort_keys=True))
    print("host reference %.0f ns (nominal %.0f): raw wall ns per packet %s" % (
        statistics.median(r["ref_ns"] for r in runs), ledger.REFERENCE_NS,
        ", ".join("%.1f" % ledger.wall_ns_per_pkt(ledger.unscaled(r)) for r in runs)))
    print("simulated req_fail_frac %.6g, rss growth %.4g MB per simulated s" % (
        ledger.req_fail_frac(run["clients"]),
        statistics.median(ledger.rss_growth_mb_per_sim_s(r) for r in runs)))

    if args.trace:
        spans = build_dir() / ("spans-%s-%d.json" % (args.workload, args.seed))
        trace = sim(binary, args.workload, args.seed, window_s, "trace",
                    ("--spans", str(spans)))
        check_twin("traced run", trace)
        sq = mt = None
        if args.workload in SHARDED:
            sq = sim(binary, args.workload, args.seed, window_s, "run-sq")
            mt = sim(binary, args.workload, args.seed, window_s, "run-mt")
            check_twin("single-queue run", sq)
            check_twin("multi-thread run", mt)
        metrics = ledger.per_layer(runs, trace, sq, mt)
        checks.append(ledger.check_ledger(metrics))
        print("spans: %d written to %s" % (trace.get("spans", 0), spans))
    else:
        metrics = ledger.end_to_end(runs, setups)
        # The same figures left as measured, before reference scaling.
        raw = ledger.end_to_end([ledger.unscaled(r) for r in runs],
                                [ledger.unscaled(r) for r in setups])
        print("unscaled: " + json.dumps({k: v for k, (v, _) in raw.items()}, sort_keys=True))

    for name, (value, unit) in metrics.items():
        print("%-34s %14s %s" % (name, fmt(value), unit))
    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        if not ok:
            print("CHECK FAILED: %s (%s)" % (name, detail))
    print("checks: %d attempted, %d failed" % (len(checks), len(failed)))
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        sys.exit(1)
