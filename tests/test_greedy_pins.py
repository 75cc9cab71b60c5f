"""Pinned greedy outputs, the greedy's counters and its memory peak.

The pinned values come from the code before the greedy's state and
completion were cut down for memory; a change to how a run draws, steps or
completes shows here as a changed count or digest. The trajectory digests
come from the code that samples the state after k steps at x = k/n. The
n = 50 000 pins lie above n = 46 341, where a key u*n + v of two vertices
no longer fits in int32.
"""
import hashlib
import tracemalloc

import numpy as np
import pytest

import fdst.harness as harness
from fdst.greedy import run_lazy


def sha256(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


# r: (full_degree_count, leaf_count, phase1_full_degree_count, rho1_empirical,
#     sha256 of tree, sha256 of trajectory samples) of run_lazy(20_000, r, rng(r))
LAZY_PINS = {
    3: (9196, 9239, 8746, 0.64705,
        "15705d02ff815d49a879a69c98a78312d0ef4b90e774afe824ce5f9931a5afc1",
        "159352a61b46a38fbd3c281b398409da283c98cace8ec0c93b775afa3fe63e95"),
    4: (5373, 11353, 4860, 0.46835,
        "dbe994bee1be4dc79eb06176e24ec252a4963ff8619155eb5e3425ab6c97b0bc",
        "b9b051efbbd56581e03ed32bb9093c877aad4942e499e755590445a9fdd94221"),
}

# graph-mode simulate_trials(3, 1000, 3, seed=7): per trial (full_degree_count,
# leaf_count, phase1_full_degree_count, rho1_empirical, sampler_rejections,
# sha256 of the accepted run's tree)
GRAPH_PINS = [
    (454, 457, 440, 0.654, 1,
     "0dd24a0b3a8b04f8464d1caf375949baf888472343494d62e3baa7f5b907527a"),
    (466, 468, 454, 0.671, 1,
     "26bdeb31c1628c74c68bd175190432777da39b40b70f7c9ac07503ec476d55a6"),
    (456, 463, 433, 0.641, 7,
     "2761523ab370cd866c20e163e516cbe1de53571143cab6b5c4e04a1e440c5950"),
]

# run_lazy(50_000, 3, rng(50)): (full_degree_count, leaf_count,
# phase1_full_degree_count, rho1_empirical, greedy_steps, greedy_components,
# sha256 of tree, sha256 of trajectory samples)
LARGE_LAZY_PIN = (
    22978, 23111, 22001, 0.65168, 34627, 3349,
    "b32a2251d9aecb842e6f281703546045c05da717c9c834cd5e62ae91351a659d",
    "37ee08bca6e04d783a5a59601da9f954ce84a6df558799e3321822ba8e3fd04c")

# graph-mode simulate_trials(3, 50_000, 1, seed=7), in GRAPH_PINS' fields
LARGE_GRAPH_PIN = [
    (22944, 23064, 21905, 0.6492, 1,
     "e74672e8920a43ecc67cd4c6dd070afc89cf4dcd0e8753f31c9b84ff49cf256d"),
]


@pytest.mark.parametrize("r", sorted(LAZY_PINS))
def test_lazy_run_is_pinned(r):
    res, traj = run_lazy(20_000, r, np.random.default_rng(r))
    assert (res.full_degree_count, res.leaf_count, res.phase1_full_degree_count,
            res.rho1_empirical, sha256(res.tree), sha256(traj.samples)) == LAZY_PINS[r]


def test_lazy_run_above_int32_keys_is_pinned():
    res, traj = run_lazy(50_000, 3, np.random.default_rng(50))
    assert (res.full_degree_count, res.leaf_count, res.phase1_full_degree_count,
            res.rho1_empirical, res.greedy_steps, res.greedy_components,
            sha256(res.tree), sha256(traj.samples)) == LARGE_LAZY_PIN


def graph_trials(monkeypatch, n, trials):
    """Graph-mode simulate_trials(3, n, trials, seed=7) in GRAPH_PINS' fields."""
    results = []
    run = harness.run_on_pairing

    def spy(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(harness, "run_on_pairing", spy)
    records, _ = harness.simulate_trials(3, n, trials, 7, mode="graph", jobs=1)
    assert all(res.connected for res in results)  # no trial drew again
    return [(rec["full_degree_count"], rec["leaf_count"], rec["phase1_full_degree_count"],
             rec["rho1_empirical"], rec["sampler_rejections"], sha256(res.tree))
            for rec, res in zip(records, results)]


def test_graph_mode_trials_are_pinned(monkeypatch):
    assert graph_trials(monkeypatch, 1000, 3) == GRAPH_PINS


def test_graph_mode_trial_above_int32_keys_is_pinned(monkeypatch):
    assert graph_trials(monkeypatch, 50_000, 1) == LARGE_GRAPH_PIN


def test_lazy_run_memory_peak_per_vertex():
    # tracemalloc peak of one warm run_lazy(10_000, 3): about 164 bytes a
    # vertex when the greedy took a copy of the pairing, kept its fresh pool
    # as boxed ints, and its scratch and the point pairs lived through
    # completion; about 91 with eight-byte points, pools and forest and a
    # reveal mark per point; about 65 with four-byte indices and no marks
    n = 10_000
    run_lazy(1000, 3, np.random.default_rng(0))  # first-call allocations stay out
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run_lazy(n, 3, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak / n < 75, f"{peak / n:.0f} bytes a vertex"
