"""Graph-mode runs of the greedy full-degree-tree algorithm."""
import numpy as np
import pytest

from fdst.catalog import complete_bipartite, cycle_graph, named_graph
from fdst.errors import InvalidInputError, InvariantViolationError
from fdst.exact import construct_prism_torus, phi_exact_stars
from fdst.graphs import graph_from_edges, sample_simple_regular, is_connected
from fdst.greedy import _complete, _State, run_on_graph
from fdst.unionfind import UnionFind


def assert_spanning_tree(g, edges):
    assert len(edges) == g.n - 1
    uf = UnionFind(g.n)
    for u, v in edges:
        assert g.has_edge(u, v)
        assert uf.union(u, v), f"cycle through ({u}, {v})"
    assert uf.components == 1


def tree_degrees(n, edges):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def test_k4_always_one_full_vertex():
    k4 = named_graph("k4")
    # built without r, K4 is a plain SimpleGraph: its degrees give r
    bare = graph_from_edges(4, k4.edges())
    assert not hasattr(bare, "r")
    for g in (k4, bare):
        for seed in range(50):
            res = run_on_graph(g, np.random.default_rng(seed))
            assert res.full_degree_count == 1
            assert res.leaf_count == 3
            assert_spanning_tree(g, res.tree)


def test_k33_full_count_in_allowed_range():
    g = named_graph("k33")
    counts = set()
    for seed in range(300):
        res = run_on_graph(g, np.random.default_rng(seed))
        counts.add(res.full_degree_count)
        assert res.full_degree_count >= 1
        assert_spanning_tree(g, res.tree)
    assert counts <= {1, 2}


def test_full_vertices_have_full_tree_degree():
    for name in ("prism", "cube", "petersen"):
        g = named_graph(name)
        for seed in range(40):
            res = run_on_graph(g, np.random.default_rng(seed))
            deg = tree_degrees(g.n, res.tree)
            for v in res.full_vertices:
                assert deg[v] == g.r
            assert len(res.full_vertices) == res.full_degree_count


def test_full_count_never_beats_exact_optimum():
    for name in ("k4", "k33", "prism", "cube", "petersen"):
        g = named_graph(name)
        phi, _ = phi_exact_stars(g)
        for seed in range(40):
            res = run_on_graph(g, np.random.default_rng(seed))
            assert res.full_degree_count <= phi


def test_leaf_identity_cubic():
    # in a cubic spanning tree: leaves = (degree-3 vertices) + 2
    for name in ("k4", "prism", "cube", "petersen"):
        g = named_graph(name)
        for seed in range(25):
            res = run_on_graph(g, np.random.default_rng(seed))
            deg = tree_degrees(g.n, res.tree)
            x1 = sum(1 for d in deg if d == 1)
            x3 = sum(1 for d in deg if d == 3)
            assert res.leaf_count == x1 == x3 + 2
            assert res.leaf_count >= res.full_degree_count + 2


def test_leaf_bound_higher_degree():
    for g, seeds in ((named_graph("k5"), range(30)),
                     (construct_prism_torus(4, 4), range(30))):
        r = g.r
        for seed in seeds:
            res = run_on_graph(g, np.random.default_rng(seed))
            assert res.leaf_count >= (r - 2) * res.full_degree_count + 2
            assert_spanning_tree(g, res.tree)


def test_run_requires_connected_graph():
    two_k4 = graph_from_edges(
        8,
        [(u, v) for u in range(4) for v in range(u + 1, 4)]
        + [(4 + u, 4 + v) for u in range(4) for v in range(u + 1, 4)],
        r=3)
    with pytest.raises(InvalidInputError):
        run_on_graph(two_k4, np.random.default_rng(0))


def test_run_requires_r_at_least_3():
    with pytest.raises(InvalidInputError):
        run_on_graph(cycle_graph(6), np.random.default_rng(0))
    # an irregular or empty graph has no r at all
    for g in (complete_bipartite(2, 3), graph_from_edges(0, [])):
        with pytest.raises(InvalidInputError, match="regular"):
            run_on_graph(g, np.random.default_rng(0))


def test_determinism():
    g = named_graph("petersen")
    a = run_on_graph(g, np.random.default_rng(4))
    b = run_on_graph(g, np.random.default_rng(4))
    assert np.array_equal(a.tree, b.tree)
    assert a.full_degree_count == b.full_degree_count


def test_large_cubic_sample_hits_reference_fraction():
    n = 100_000
    rng = np.random.default_rng(31)
    g = sample_simple_regular(n, 3, rng)
    assert is_connected(g)
    res = run_on_graph(g, rng)
    assert abs(res.full_degree_count / n - 0.4591) < 0.01
    assert res.leaf_count >= res.full_degree_count + 2
    assert res.rho1_empirical is not None
    assert res.phase1_full_degree_count <= res.full_degree_count


# completion of the forest 0-1 on the path 0-1-2-3; nothing saturated
PATH_EDGES = np.array([0, 1, 2]), np.array([1, 2, 3])
PATH_FOREST = np.array([0]), np.array([1])
UNSATURATED = np.zeros(4, dtype=bool)


def test_completion_joins_the_labelled_components():
    keys, connected = _complete(4, [0, 0, 2, 3], *PATH_FOREST, *PATH_EDGES, UNSATURATED)
    assert keys.tolist() == [0 * 4 + 1, 1 * 4 + 2, 2 * 4 + 3]
    assert connected


def test_completion_rejects_a_label_count_other_than_n_minus_edges():
    with pytest.raises(InvariantViolationError):
        _complete(4, [0, 1, 2, 3], *PATH_FOREST, *PATH_EDGES, UNSATURATED)


def test_completion_rejects_a_forest_edge_across_two_labels():
    # three labels for one edge on four vertices, but the edge 0-1 crosses two
    with pytest.raises(InvariantViolationError):
        _complete(4, [0, 2, 2, 3], *PATH_FOREST, *PATH_EDGES, UNSATURATED)


def test_completion_rejects_a_needed_edge_at_a_saturated_vertex():
    saturated = UNSATURATED.copy()
    saturated[1] = True  # the tree needs the edge 1-2
    with pytest.raises(InvariantViolationError):
        _complete(4, [0, 0, 2, 3], *PATH_FOREST, *PATH_EDGES, saturated)


def test_graph_mode_takes_no_trajectory_samples(monkeypatch):
    def boom(*args):
        raise AssertionError("graph mode sampled the state")

    monkeypatch.setattr(_State, "sample", boom)
    res = run_on_graph(named_graph("petersen"), np.random.default_rng(2))
    assert_spanning_tree(named_graph("petersen"), res.tree)


def test_step_log_records_outcomes():
    g = named_graph("petersen")
    res = run_on_graph(g, np.random.default_rng(2), record_steps=True)
    assert res.steps, "expected step records"
    # the initial star is logged as the first (always successful) step
    assert res.steps[0].op == 2 and res.steps[0].success
    assert sum(1 for s in res.steps if s.success) == res.full_degree_count
    # a step lists only newly revealed partners; a leaf's parent edge is known
    for step in res.steps:
        assert step.op in (1, 2)
        assert len(step.partners) == (g.r - 1 if step.op == 1 else g.r)
