"""Tests of the benchmark's own logic: span arithmetic, output checks, inputs.

    python3 -m pytest perfbench/tests
"""
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402
from gen_graphs import is_connected, random_regular_graph  # noqa: E402
from run import run_check  # noqa: E402
from spans import Span, covered_length, layer_values, self_times  # noqa: E402
from workloads import GRAPH_N, GRAPH_TRIALS, WORKLOADS, exact_witnesses_ok  # noqa: E402


def span(sid, parent, t0, t1, pid=1, name="x", attrs=None):
    return Span(sid, parent, name, t0, t1, pid, attrs or {})


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7)
    assert covered_length([], 0, 10) == 0


def test_self_time_subtracts_the_union_of_children():
    tree = [
        span("r", None, 0.0, 10.0),
        span("a", "r", 1.0, 4.0),
        span("b", "r", 3.0, 6.0),          # overlaps a
        span("c", "r", 5.0, 9.0, pid=2),   # a worker running beside the parent
        span("a1", "a", 2.0, 3.0),
    ]
    own = self_times(tree)
    assert own["r"] == pytest.approx(2.0)   # children cover [1, 9]
    assert own["a"] == pytest.approx(2.0)
    assert own["b"] == pytest.approx(3.0)
    assert own["a1"] == pytest.approx(1.0)


def test_simulate_overhead_and_pool_utilisation():
    sim = "harness.simulate_trials"
    tree = [
        span("s", None, 0.0, 10.0, name=sim, attrs={"cpu_s": 15.0, "jobs": 2}),
        span("w1", "s", 1.0, 5.0, pid=2, name="greedy.run_lazy", attrs={"steps": 4}),
        span("w2", "s", 5.0, 8.0, pid=2, name="greedy.run_lazy", attrs={"steps": 4}),
        span("w3", "s", 1.0, 9.0, pid=3, name="greedy.run_lazy", attrs={"steps": 4}),
    ]
    v = layer_values(tree, {})
    assert v["harness.simulate_trials.overhead_s"] == pytest.approx(2.0)
    assert v["harness.pool_cpu_util"] == pytest.approx(0.75)
    assert v[f"{sim}.self_s"] == pytest.approx(2.0)
    assert v["greedy.run_lazy.calls"] == 3
    assert v["greedy.run_lazy.steps"] == 12
    assert v["greedy.run_lazy.us_per_step"] == pytest.approx(15.0 / 12 * 1e6)
    assert v["exact.exact_result.calls"] == 0


def _write_trials(out, full_fraction=0.459):
    for k in range(GRAPH_TRIALS):
        full = round(full_fraction * GRAPH_N)
        rec = {"trial": k, "n": GRAPH_N, "r": 3, "connected": True,
               "full_degree_count": full, "leaf_count": full + 2}
        (out / f"trial_{k:04d}.json").write_text(json.dumps(rec))


def _failures(workload, out):
    checks = workload.checks({}, out)
    return [label for label, check in checks if not run_check(label, check)]


def test_graph_small_checks_pass_on_valid_trials(tmp_path):
    _write_trials(tmp_path)
    assert _failures(WORKLOADS["graph_small"], tmp_path) == []


def test_doctored_trial_above_the_full_degree_bound_fails(tmp_path):
    _write_trials(tmp_path)
    doctored = tmp_path / "trial_0007.json"
    rec = json.loads(doctored.read_text())
    rec["full_degree_count"] = (GRAPH_N - 2) // 2 + 1   # above (n-2)/(r-1)
    rec["leaf_count"] = rec["full_degree_count"] + 2
    doctored.write_text(json.dumps(rec))
    assert _failures(WORKLOADS["graph_small"], tmp_path) == ["trial 7"]


def test_missing_output_counts_every_check_as_failed(tmp_path):
    assert len(_failures(WORKLOADS["graph_small"], tmp_path)) == GRAPH_TRIALS + 1


@pytest.mark.parametrize("n,r", [(12, 3), (16, 3), (10, 4), (11, 4), (12, 5)])
def test_generator_yields_simple_connected_regular_graphs(n, r):
    rng = np.random.default_rng(5)
    for _ in range(5):
        edges = random_regular_graph(n, r, rng)
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == len(edges) == n * r // 2
        assert np.bincount(np.array(edges).ravel(), minlength=n).tolist() == [r] * n
        assert is_connected(n, edges)


def test_generator_is_reproducible_from_the_seed():
    a = random_regular_graph(12, 3, np.random.default_rng(9))
    b = random_regular_graph(12, 3, np.random.default_rng(9))
    assert a == b


def test_exact_witness_check_rejects_a_wrong_leaf_count():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]   # K4
    payload = {"n": 4, "phi": 1, "lambda": 3, "gamma_c": 1,
               "witness_full_set": [0], "witness_tree": [[0, 1], [0, 2], [0, 3]],
               "witness_cds": [0]}
    assert exact_witnesses_ok(4, edges, payload)
    assert not exact_witnesses_ok(4, edges, {**payload, "lambda": 2})
    assert not exact_witnesses_ok(4, edges, {**payload, "witness_full_set": [0, 1], "phi": 2})


def test_tracer_wraps_every_binding_and_restores_them(tmp_path, monkeypatch):
    inner = types.ModuleType("fdst.inner")
    exec("def leaf(x):\n    return x + 1\n", inner.__dict__)
    outer = types.ModuleType("fdst.outer")
    outer.leaf = inner.leaf                       # a from-import binding
    exec("def top(x):\n    return leaf(x) * 2\n", outer.__dict__)
    monkeypatch.setitem(sys.modules, "fdst.inner", inner)
    monkeypatch.setitem(sys.modules, "fdst.outer", outer)
    monkeypatch.setattr(spans, "SPAN_TARGETS", {
        "fdst.outer:top": ("outer.top", None),
        "fdst.inner:leaf": ("inner.leaf", None),
        "fdst.inner:removed_by_a_refactor": ("inner.removed", None),
    })
    monkeypatch.setattr(spans, "COUNT_TARGETS", {})
    original_leaf = inner.leaf

    tracer = spans.Tracer()
    tracer.start(tmp_path)
    assert outer.top(1) == 4
    recorded, _ = tracer.stop()

    assert [s.name for s in recorded] == ["inner.leaf", "outer.top"]
    assert recorded[0].parent == recorded[1].sid
    assert "fdst.inner:removed_by_a_refactor" in tracer.absent
    assert inner.leaf is original_leaf and outer.leaf is original_leaf
