"""Run one benchmark workload and print its metrics; the last line is JSON.

    python3 perfbench/run.py --workload graph_small --seed 3 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seconds 28    # each in a fresh interpreter

The workload's ``fdst`` commands run in-process through ``fdst.cli.main``,
imported from ``src/`` next to this directory. The run repeats the
workload's commands on the same seed-made inputs for about ``--seconds``
and reports medians over those passes. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics (see spans.py) together
with ``trace.overhead_ratio``, the traced over the untraced median wall.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, layer_values, median_values, process_cpu_s
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 21


def import_cli():
    """fdst.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "fdst" / "__init__.py").is_file():
        raise SystemExit(f"error: no fdst sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fdst.cli
    if Path(fdst.__file__).resolve().parent != SRC / "fdst":
        raise SystemExit(f"error: imported fdst from {fdst.__file__}, not {SRC}")
    return fdst.cli


def simulate_jobs():
    return min(2, len(os.sched_getaffinity(0)))


def peak_rss_mb():
    """Largest peak RSS of this process or any one reaped child (Linux reports KiB)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def run_command(cli, argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = None
    if code != 0:
        print(f"fdst {' '.join(argv)}: exit {code}", file=sys.stderr)
    return code == 0


def run_check(label, check):
    try:
        ok = bool(check())
    except Exception:
        traceback.print_exc()
        ok = False
    if not ok:
        print(f"check failed: {label}", file=sys.stderr)
    return ok


def setup_sample(args, probe_dir):
    """Seconds from starting an interpreter to having fdst imported and inputs made."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe", str(probe_dir)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - t0


def measure(args, cli, work):
    workload = WORKLOADS[args.workload]
    start = time.perf_counter()
    # setup_s is reported by untraced runs only; its probes count towards --seconds
    setup = [] if args.trace else [setup_sample(args, work / f"probe{i}")
                                   for i in range(SETUP_PROBES)]
    inputs = workload.prepare(args.seed, work / "inputs", simulate_jobs())
    tracer = Tracer() if args.trace else None
    walls = {False: [], True: []}
    cpus, layer_passes = [], []
    attempted = failed = 0
    for k in itertools.count():
        traced = tracer is not None and k % 2 == 1
        out = work / f"pass{k}"
        out.mkdir(parents=True)
        if traced:
            tracer.start(out / "trace")
        cpu0 = process_cpu_s()
        t0 = time.perf_counter()
        ok = [run_command(cli, argv) for argv in workload.commands(inputs, out)]
        wall = time.perf_counter() - t0
        cpu = process_cpu_s() - cpu0
        if traced:
            layer_passes.append(layer_values(*tracer.stop()))
        ok += [run_check(label, check) for label, check in workload.checks(inputs, out)]
        shutil.rmtree(out)
        attempted += len(ok)
        failed += ok.count(False)
        walls[traced].append(wall)
        if not traced:
            cpus.append(cpu)
        # stop, once each kind ran, when one more pass would end further from
        # --seconds than stopping now does
        kinds_done = walls[False] and (tracer is None or walls[True])
        if kinds_done and time.perf_counter() - start + wall / 2 > args.seconds:
            break

    if tracer is None:
        values = {"setup_s": statistics.median(setup),
                  "wall_s": statistics.median(walls[False]),
                  "cpu_s": statistics.median(cpus),
                  "peak_rss_mb": peak_rss_mb()}
        section = "end_to_end"
    else:
        values = median_values(layer_passes)
        values["trace.overhead_ratio"] = (statistics.median(walls[True])
                                          / statistics.median(walls[False]))
        section = "per_layer"
        for target in tracer.absent:
            print(f"absent: {target} (its metrics read 0)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in json.loads(SPEC.read_text())[section]}
    print(f"{args.workload}: {failed} of {attempted} operations failed "
          f"(fail_ratio {failed / attempted:.4g}); pass walls untraced "
          f"{[round(w, 3) for w in walls[False]]}, traced {[round(w, 3) for w in walls[True]]}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload in its own interpreter, since peak RSS is per process."""
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600)
        print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(SPEC.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cli = import_cli()
    if args.setup_probe:
        WORKLOADS[args.workload].prepare(args.seed, Path(args.setup_probe), simulate_jobs())
        print(time.perf_counter())
        return 0
    work = WORK / str(os.getpid())
    try:
        return measure(args, cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
