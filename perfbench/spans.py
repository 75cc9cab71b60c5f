"""Span tracing for the benchmark's traced runs, done from outside the program.

The tracer replaces fdst functions with timing wrappers at run time: every
module-level binding of the original function inside the ``fdst`` package
is rebound, so calls from one module into another (``from .graphs import
is_connected``) and calls inside a module both go through the wrapper.
Nothing under ``src/`` is edited. A span records its name, start, end, the
span that was open when it began, the process id and a few attributes
taken from the call's arguments and result.

Pool workers forked by ``fdst.harness.simulate_trials`` inherit the
wrappers. In a worker the spans of one outermost call are appended to
``spans-<pid>.jsonl`` in the trace directory when that call returns, with
the parent's open span (``simulate_trials``) as their parent, because a
worker leaves through ``os._exit`` and keeps nothing in memory for the
parent to read. ``perf_counter`` is the system-wide monotonic clock on
Linux, so worker and parent times share one axis.

A target that the program no longer defines is listed in ``absent`` and its
metrics read 0; it is not an error.
"""
from __future__ import annotations

import inspect
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple


class Span(NamedTuple):
    sid: str
    parent: str | None
    name: str
    t0: float
    t1: float
    pid: int
    attrs: dict


def process_cpu_s():
    """User+system CPU of this process and of its children that have been reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _file_bytes(path):
    return os.path.getsize(path)


# target -> (span name, attribute hook). A hook takes the call's bound
# arguments and its result and returns attributes to sum per span name.
SPAN_TARGETS = {
    "fdst.cli:main": ("cli.main", None),
    "fdst.graphs:sample_simple_regular": (
        "graphs.sample_simple_regular",
        lambda a, g: {"attempts": g.rejections + 1}),
    "fdst.graphs:sample_pairing": (
        "graphs.sample_pairing", lambda a, _: {"points": a["n"] * a["r"]}),
    "fdst.graphs:project": ("graphs.project", None),
    "fdst.graphs:is_simple": ("graphs.is_simple", None),
    "fdst.graphs:graph_from_edges": ("graphs.graph_from_edges", None),
    "fdst.graphs:is_connected": ("graphs.is_connected", None),
    "fdst.graphs:read_graph": ("graphs.read_graph", None),
    # the last trajectory sample is at x = t/n for the final main-loop step t;
    # the +1 is the initial star
    "fdst.greedy:run_lazy": (
        "greedy.run_lazy",
        lambda a, res: {"steps": round(res[1].samples[-1][0] * a["n"]) + 1}),
    "fdst.greedy:run_on_graph": (
        "greedy.run_on_graph", lambda a, res: {"vertices": res.n}),
    "fdst.greedy:complete_to_spanning_tree": ("greedy.complete_to_spanning_tree", None),
    "fdst.ode:integrate_two_phase": (
        "ode.integrate_two_phase",
        lambda a, res: {"event_residual": max(abs(float(res.phase1.end_state[res.r])),
                                              abs(float(res.phase2.end_state[res.r - 1])))}),
    "fdst.exact:exact_result": ("exact.exact_result", None),
    "fdst.exact:phi_exact_stars": ("exact.phi_exact_stars", None),
    "fdst.exact:spanning_tree_extrema": (
        "exact.spanning_tree_extrema", lambda a, ext: {"trees": ext.tree_count}),
    "fdst.exact:lambda_gamma_exact": ("exact.lambda_gamma_exact", None),
    "fdst.exact:kirchhoff_tree_count": ("exact.kirchhoff_tree_count", None),
    "fdst.harness:reproduce_table1": ("harness.reproduce_table1", None),
    "fdst.harness:simulate_trials": (
        "harness.simulate_trials", lambda a, _: {"jobs": a["jobs"] or 1}),
    "fdst.harness:write_json": ("harness.write_json", None),
    "fdst.harness:write_solution_csv": (
        "harness.write_solution_csv", lambda a, _: {"bytes": _file_bytes(a["path"])}),
    "fdst.harness:write_trajectory_csv": ("harness.write_trajectory_csv", None),
    "fdst.harness:read_trajectory_csv": (
        "harness.read_trajectory_csv", lambda a, _: {"bytes": _file_bytes(a["path"])}),
    "fdst.harness:sup_deviations": ("harness.sup_deviations", None),
    "fdst.harness:merged_overlay_rows": ("harness.merged_overlay_rows", None),
}

# Spans that also record the CPU of the process and its reaped children.
CPU_SPANS = {"harness.simulate_trials"}

# Drift functions are called millions of times per table; they only count.
COUNT_TARGETS = {
    "fdst.ode:deriv_op1": "ode.deriv_op1",
    "fdst.ode:deriv_op2": "ode.deriv_op2",
    "fdst.ode:blend_phase2": "ode.blend_phase2",
}

# RK4 steps taken inside event location are bisection steps, the rest march.
RK4_TARGET = "fdst.ode:_rk4_step"
LOCATE_TARGET = "fdst.ode:_locate_zero"


class Tracer:
    """Installs the wrappers for one traced pass and collects its spans."""

    def __init__(self):
        self.trace_dir = None
        self.spans = []
        self.stack = []
        self.counts = defaultdict(lambda: [0])
        self.absent = []
        self.in_locate = 0
        self._pid = os.getpid()
        self._next = 0
        self._worker_parent = None
        self._patched = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- lifecycle ---------------------------------------------------------

    def start(self, trace_dir):
        self.trace_dir = Path(trace_dir)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.spans, self.stack, self.absent = [], [], []
        self.counts = defaultdict(lambda: [0])
        for target, (name, hook) in SPAN_TARGETS.items():
            self._patch(target, lambda fn, name=name, hook=hook:
                        self._span_wrapper(fn, name, hook))
        for target, name in COUNT_TARGETS.items():
            self._patch(target, lambda fn, name=name: self._count_wrapper(fn, name))
        self._patch(RK4_TARGET, self._rk4_wrapper)
        self._patch(LOCATE_TARGET, self._locate_wrapper)

    def stop(self):
        """Restore the program and return (spans, counts) of the pass, workers included."""
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched = []
        spans = list(self.spans)
        for path in sorted(self.trace_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                spans.extend(Span(*json.loads(line)) for line in fh)
        return spans, {name: cell[0] for name, cell in self.counts.items()}

    def _after_fork(self):
        self._pid = os.getpid()
        self._worker_parent = self.stack[-1] if self.stack else None
        self.spans, self.stack = [], []

    def _patch(self, target, make_wrapper):
        modname, attr = target.split(":")
        module = sys.modules.get(modname)
        orig = getattr(module, attr, None) if module is not None else None
        if orig is None:
            self.absent.append(target)
            return
        wrapper = make_wrapper(orig)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "fdst" or name.startswith("fdst.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, orig))

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name, hook):
        sig = inspect.signature(fn)
        with_cpu = name in CPU_SPANS
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._next += 1
            sid = f"{tracer._pid}.{tracer._next}"
            parent = tracer.stack[-1] if tracer.stack else tracer._worker_parent
            tracer.stack.append(sid)
            attrs = {}
            cpu0 = process_cpu_s() if with_cpu else None
            t0 = time.perf_counter()
            t1 = None
            try:
                result = fn(*args, **kwargs)
                t1 = time.perf_counter()
                if with_cpu:
                    attrs["cpu_s"] = process_cpu_s() - cpu0
                if hook is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs.update(hook(bound.arguments, result))
                return result
            finally:
                if t1 is None:
                    t1 = time.perf_counter()
                tracer.stack.pop()
                tracer.spans.append(Span(sid, parent, name, t0, t1, tracer._pid, attrs))
                if not tracer.stack and tracer._worker_parent is not None:
                    tracer._flush_worker()

        return wrapper

    def _count_wrapper(self, fn, name):
        cell = self.counts[name]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rk4_wrapper(self, fn):
        tracer = self
        march, bisect = self.counts["ode.rk4_steps"], self.counts["ode.bisect_iters"]

        def wrapper(*args, **kwargs):
            (bisect if tracer.in_locate else march)[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _locate_wrapper(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.in_locate += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.in_locate -= 1

        return wrapper

    def _flush_worker(self):
        path = self.trace_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a") as fh:
            fh.write("".join(json.dumps(list(s)) + "\n" for s in self.spans))
        self.spans = []


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def covered_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """sid -> duration minus the time its child spans cover.

    Children running in parallel worker processes cover their union once.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.t0, s.t1))
    return {s.sid: (s.t1 - s.t0) - covered_length(children[s.sid], s.t0, s.t1)
            for s in spans}


def _busiest_worker_s(spans, parent_sid):
    busy = defaultdict(float)
    for s in spans:
        if s.parent == parent_sid:
            busy[s.pid] += s.t1 - s.t0
    return max(busy.values(), default=0.0)


def layer_values(spans, counts):
    """Per-layer metric values of one traced pass, keyed by metric name."""
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    attrs = defaultdict(lambda: defaultdict(float))
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += own[s.sid]
        for key, value in s.attrs.items():
            attrs[s.name][key] += value
    names = {name for name, _ in SPAN_TARGETS.values()}
    v = {}
    for name in names:
        v[f"{name}.calls"] = calls[name]
        v[f"{name}.self_s"] = self_s[name]

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    ssr = "graphs.sample_simple_regular"
    v[f"{ssr}.attempts"] = int(attrs[ssr]["attempts"])
    v[f"{ssr}.accept_ratio"] = ratio(calls[ssr], attrs[ssr]["attempts"])
    sp = "graphs.sample_pairing"
    v[f"{sp}.ns_per_point"] = ratio(self_s[sp], attrs[sp]["points"], 1e9)
    lazy = "greedy.run_lazy"
    v[f"{lazy}.steps"] = int(attrs[lazy]["steps"])
    v[f"{lazy}.us_per_step"] = ratio(self_s[lazy], attrs[lazy]["steps"], 1e6)
    rog = "greedy.run_on_graph"
    v[f"{rog}.us_per_vertex"] = ratio(self_s[rog], attrs[rog]["vertices"], 1e6)
    ode = "ode.integrate_two_phase"
    v["ode.rk4_steps"] = counts.get("ode.rk4_steps", 0)
    v["ode.bisect_iters"] = counts.get("ode.bisect_iters", 0)
    v["ode.drift_evals"] = counts.get("ode.deriv_op1", 0) + counts.get("ode.deriv_op2", 0)
    v["ode.event_residual_max"] = max(
        (s.attrs["event_residual"] for s in spans if s.name == ode), default=0.0)
    v["ode.us_per_step"] = ratio(self_s[ode], v["ode.rk4_steps"] + v["ode.bisect_iters"], 1e6)
    v["exact.spanning_tree_extrema.trees"] = int(attrs["exact.spanning_tree_extrema"]["trees"])
    for name in ("harness.write_solution_csv", "harness.read_trajectory_csv"):
        v[f"{name}.bytes"] = int(attrs[name]["bytes"])
    sims = [s for s in spans if s.name == "harness.simulate_trials"]
    v["harness.simulate_trials.overhead_s"] = sum(
        (s.t1 - s.t0) - _busiest_worker_s(spans, s.sid) for s in sims)
    v["harness.pool_cpu_util"] = ratio(
        sum(s.attrs["cpu_s"] for s in sims),
        sum((s.t1 - s.t0) * s.attrs["jobs"] for s in sims))
    return v


def median_values(passes):
    """Median of each metric over several traced passes of the same inputs."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
