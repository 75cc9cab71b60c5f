"""Run every workload several times, each run with its own seed, and report the
median and quartile spread of each end-to-end metric.

    python3 perfbench/spread.py --first-seed 1 --json spread.json

Each workload of BENCHMARK.json runs RUNS times, for ``run_seconds`` each,
with the seeds from ``--first-seed`` on. Runs go round-robin over the
workloads, so slow drifts of the machine land in every workload's spread
rather than in one. The spread is
(Q3 - Q1) / median with the quartiles of ``statistics.quantiles(n=4)``;
a metric is steady when its spread is below a third of its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
RUNS = 10


def run_once(workload, seed, seconds):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=600)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, {result}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["run_s"] = time.perf_counter() - t0
    return values


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None):
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", help="write the summary to this file")
    args = parser.parse_args(argv)

    samples = {w["name"]: [] for w in spec["workloads"]}
    for i in range(RUNS):
        for workload in samples:
            samples[workload].append(
                run_once(workload, args.first_seed + i, spec["run_seconds"]))
            print(f"run {i + 1}/{RUNS} {workload}: {samples[workload][-1]}",
                  file=sys.stderr, flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload, runs in samples.items():
        summary[workload] = {}
        for name, bound in bounds.items():
            s = summarize([run[name] for run in runs])
            summary[workload][name] = s
            mark = "steady" if s["spread"] < bound / 3 else (
                "within bound" if s["spread"] <= bound else "TOO WIDE")
            print(f"{workload:12} {name:12} median {s['median']:10.4f}  "
                  f"spread {s['spread']:.3f} (bound {bound})  {mark}")
    run_s = [run["run_s"] for runs in samples.values() for run in runs]
    print(f"mean run {statistics.mean(run_s):.1f} s, longest {max(run_s):.1f} s")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
