"""Shared fixtures: heavyweight integrations, simulation batches and the
connected cubic corpus are built once per session and reused by the unit
and acceptance tests."""
import time
from itertools import combinations

import numpy as np
import pytest

from fdst import harness
from fdst.graphs import graph_from_edges, is_connected


@pytest.fixture(scope="session")
def table1():
    """Full default-step table reproduction: (report, {r: TrajectoryResult})."""
    return harness.reproduce_table1()


@pytest.fixture(scope="session")
def ode_r3(table1):
    return table1[1][3]


@pytest.fixture(scope="session")
def ode_r4(table1):
    return table1[1][4]


@pytest.fixture(scope="session")
def sim_batch_r3():
    """Ten lazy trials at r=3, n=1e5: (records, trajectories, elapsed_seconds)."""
    t0 = time.perf_counter()
    records, trajs = harness.simulate_trials(
        r=3, n=100_000, trials=10, seed=20240817, mode="lazy", jobs=2)
    return records, trajs, time.perf_counter() - t0


def _labelled_cubic_graphs(n):
    """Labelled cubic graphs on [n] with N(0) = {1, 2, 3}, as sorted edge lists.

    Each step joins the lowest vertex of degree below 3 to higher vertices,
    so each labelled graph comes once; pinning N(0) loses no class.
    """
    adj = [{1, 2, 3}] + [{0} if v <= 3 else set() for v in range(1, n)]

    def rec():
        u = next((v for v in range(n) if len(adj[v]) < 3), None)
        if u is None:
            yield sorted((v, w) for v in range(n) for w in adj[v] if v < w)
            return
        cands = [w for w in range(u + 1, n) if len(adj[w]) < 3 and w not in adj[u]]
        for chosen in combinations(cands, 3 - len(adj[u])):
            for w in chosen:
                adj[u].add(w)
                adj[w].add(u)
            yield from rec()
            for w in chosen:
                adj[u].remove(w)
                adj[w].remove(u)

    yield from rec()


@pytest.fixture(scope="session")
def cubic_corpus():
    """All connected cubic graphs on 4, 6, 8 vertices, one per iso class.

    The first connected graph of each rounded adjacency spectrum is kept.
    Isomorphic graphs share a spectrum, so no class comes twice; a class
    split by rounding or two cospectral classes would change the class
    counts {4: 1, 6: 2, 8: 5} (OEIS A002851) that
    ``test_oracle_agreement_on_cubic_corpus`` pins.
    """
    corpus = {}
    for n in (4, 6, 8):
        reps = {}
        for edges in _labelled_cubic_graphs(n):
            g = graph_from_edges(n, edges, r=3)
            if is_connected(g):
                a = np.zeros((n, n))
                a[tuple(zip(*edges))] = 1.0
                reps.setdefault(tuple(np.round(np.linalg.eigvalsh(a + a.T), 6)), g)
        corpus[n] = list(reps.values())
    return corpus


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
