"""Property tests of the greedy loop and its completion.

Graph mode runs the lazy-mode loop with the graph's own pairing. The
reference below is the earlier stand-alone graph-mode loop, whose success
rule is "at most one neighbour already in the tree"; on any connected
simple regular graph both must make the same random draws and build the
same tree. Both read their random choices from the same block-drawn
stream of uniforms, and a pool pops index int(u * len) for the next u.

Completion has its own reference, the earlier vertex-level one: a
union-find over the forest's edges, then Kruskal over all candidate edges
in lexicographic order. The program joins the components the greedy
labelled while building the forest, scanning only the edges between them.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fdst.errors import InvariantViolationError
from fdst.graphs import (graph_from_edges, is_connected, project, sample_pairing,
                         sample_simple_pairing, sample_simple_regular)
from fdst.greedy import _greedy, _State, _uniforms, run_lazy, run_on_graph, run_on_pairing
from fdst.unionfind import UnionFind


class IndexedSet:
    """Dynamic set with O(1) membership, removal, and uniform random pop."""

    def __init__(self, iterable=()):
        self.items = list(iterable)
        self.pos = {x: i for i, x in enumerate(self.items)}

    def __len__(self):
        return len(self.items)

    def __contains__(self, x):
        return x in self.pos

    def add(self, x):
        if x not in self.pos:
            self.pos[x] = len(self.items)
            self.items.append(x)

    def discard(self, x):
        i = self.pos.pop(x, None)
        if i is None:
            return
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.pos[last] = i

    def pop_random(self, u):
        i = int(u * len(self.items))
        x = self.items[i]
        self.discard(x)
        return x


def reference_join_forest(n, forest, edges, saturated):
    """Join the components of an acyclic forest with ``edges``, in their order.

    An edge is kept when it joins two components; it may not touch a
    saturated vertex. Returns the sorted tree edges (u < v) and whether
    they span all n vertices.
    """
    uf = UnionFind(n)
    for u, v in forest:
        if not uf.union(u, v):
            raise InvariantViolationError(f"forest has a cycle at ({u}, {v})")
    tree = sorted(forest)
    for u, v in edges:
        if uf.union(u, v):
            if saturated[u] or saturated[v]:
                raise InvariantViolationError(
                    f"completion tried to add ({u}, {v}) at a full-degree vertex")
            tree.append((u, v))
    tree.sort()
    return tree, uf.components == 1


def reference_run_on_graph(g, rng):
    """Graph mode as a loop of its own: (tree, full vertices, phase-1 count, rho1)."""
    n, adj = g.n, g.adjacency
    draw = _uniforms(rng).__next__
    in_tree = bytearray(n)
    forest = set()
    full = bytearray(n)
    leaf_pool = IndexedSet()
    fresh_pool = IndexedSet(range(n))
    v0 = int(draw() * n)
    fresh_pool.discard(v0)
    in_tree[v0] = 1
    for w in adj[v0]:
        forest.add((v0, w) if v0 < w else (w, v0))
        in_tree[w] = 1
        fresh_pool.discard(w)
        leaf_pool.add(w)
    full[v0] = 1
    t = 0
    first_fresh_step = None
    full_at_phase1_end = None
    while len(leaf_pool) or len(fresh_pool):
        t += 1
        if len(leaf_pool):
            v = leaf_pool.pop_random(draw())
        else:
            if first_fresh_step is None:
                first_fresh_step = t
                full_at_phase1_end = sum(full)
            v = fresh_pool.pop_random(draw())
        in_tree_nbrs = sum(1 for w in adj[v] if in_tree[w])
        if in_tree_nbrs <= 1:
            for w in adj[v]:
                forest.add((v, w) if v < w else (w, v))
                if not in_tree[w]:
                    in_tree[w] = 1
                    if w in fresh_pool:
                        fresh_pool.discard(w)
                        leaf_pool.add(w)
            in_tree[v] = 1
            full[v] = 1
        else:
            for w in adj[v]:
                fresh_pool.discard(w)
                leaf_pool.discard(w)
    full_vertices = [v for v in range(n) if full[v]]
    phase1 = full_at_phase1_end if full_at_phase1_end is not None else len(full_vertices)
    rho1 = first_fresh_step / n if first_fresh_step is not None else None
    tree, _ = reference_join_forest(n, sorted(forest), g.edges(), full)
    return tree, full_vertices, phase1, rho1


@st.composite
def connected_regular_graphs(draw):
    r = draw(st.sampled_from([3, 4, 5]))
    n = draw(st.integers(r + 1, 30).filter(lambda k: k * r % 2 == 0))
    g = sample_simple_regular(n, r, np.random.default_rng(draw(st.integers(0, 2**32))))
    assume(is_connected(g))
    return g


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(g=connected_regular_graphs(), seed=st.integers(0, 2**32))
def test_graph_mode_matches_reference_loop(g, seed):
    ref_rng = np.random.default_rng(seed)
    tree, full_vertices, phase1, rho1 = reference_run_on_graph(g, ref_rng)
    rng = np.random.default_rng(seed)
    res = run_on_graph(g, rng)
    assert res.tree.tolist() == [list(e) for e in tree]
    assert res.full_vertices.tolist() == full_vertices
    assert res.full_degree_count == len(full_vertices)
    assert res.phase1_full_degree_count == phase1
    assert res.rho1_empirical == rho1
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=80, deadline=None)
@given(r=st.sampled_from([3, 4, 5]), n=st.integers(4, 16), seed=st.integers(0, 2**32))
def test_run_on_pairing_spans_the_sampled_graph(r, n, seed):
    assume(r < n and n * r % 2 == 0)
    pairing, _ = sample_simple_pairing(n, r, np.random.default_rng(seed))
    g = graph_from_edges(n, project(pairing).edges, r=r)
    res = run_on_pairing(pairing, np.random.default_rng(seed + 1))
    assert res.connected == is_connected(g)
    assert {tuple(e) for e in res.tree.tolist()} <= set(g.edges())
    deg = np.bincount(res.tree.ravel(), minlength=n)
    assert np.all(deg[res.full_vertices] == r)


@settings(max_examples=80, deadline=None)
@given(r=st.integers(3, 6), n=st.integers(2, 40), seed=st.integers(0, 2**32))
def test_lazy_mode_invariants(r, n, seed):
    n += (n * r) % 2
    res, _ = run_lazy(n, r, np.random.default_rng(seed), sample_stride=1,
                      invariant_checks=True)  # audits every step
    res.pairing.validate()
    deg = [0] * n
    for u, v in res.tree:
        deg[u] += 1
        deg[v] += 1
    assert all(deg[v] == r for v in res.full_vertices)
    if res.connected:
        assert res.full_degree_count * (r - 1) <= n - 2


def tree_leaf_count(n, tree):
    deg = [0] * n
    for u, v in tree:
        deg[u] += 1
        deg[v] += 1
    return deg.count(1)


@settings(max_examples=80, deadline=None)
@given(r=st.integers(3, 6), n=st.integers(1, 60), seed=st.integers(0, 2**32))
def test_lazy_completion_matches_reference(r, n, seed):
    n += (n * r) % 2
    res, _ = run_lazy(n, r, np.random.default_rng(seed))
    # the forest is the union of the full vertices' stars in the pairing
    forest = set()
    for v in res.full_vertices:
        for p in range(v * r, v * r + r):
            w = int(res.pairing.matches[p]) // r
            forest.add((min(v, w), max(v, w)))
    full = bytearray(n)
    for v in res.full_vertices:
        full[v] = 1
    edges = sorted({(u, v) for u, v in project(res.pairing).edges if u != v})
    tree, connected = reference_join_forest(n, sorted(forest), edges, full)
    assert res.tree.tolist() == [list(e) for e in tree]
    assert res.connected == connected
    assert res.leaf_count == tree_leaf_count(n, tree)


def assert_tree_layout(res, rows):
    tree = res.tree
    assert tree.dtype == np.int64 and tree.shape == (rows, 2)
    assert np.all(tree[:, 0] < tree[:, 1])
    keys = tree[:, 0] * res.n + tree[:, 1]
    assert np.all(np.diff(keys) > 0)  # rows strictly increasing
    assert res.full_vertices.dtype == np.int64
    assert np.all(np.diff(res.full_vertices) > 0)


def test_tree_is_an_int64_array_of_sorted_rows():
    g = sample_simple_regular(200, 3, np.random.default_rng(3))
    assert is_connected(g)
    assert_tree_layout(run_on_graph(g, np.random.default_rng(4)), 199)
    res, _ = run_lazy(500, 4, np.random.default_rng(5))
    assert res.connected
    assert_tree_layout(res, 499)
    res, _ = run_lazy(6, 3, np.random.default_rng(32))  # two components
    assert not res.connected
    assert_tree_layout(res, 4)
    res, _ = run_lazy(1, 4, np.random.default_rng(0))  # all four points are self-pairs
    assert_tree_layout(res, 0)


def test_audit_checks_the_labels_against_the_parents():
    n, r = 40, 3
    rng = np.random.default_rng(5)
    fixed = sample_pairing(n, r, rng).matches.tolist()

    def finished_state():
        s = _State(n, r)
        _greedy(s, np.random.default_rng(6), fixed, None, False, False)
        s.audit()
        return s

    s = finished_state()
    child = next(v for v in range(n) if s.parent[v] != v)
    roots = [v for v in range(n) if s.parent[v] == v]
    corruptions = [
        ("labels", child, child),                          # a label off its component
        ("labels", roots[1], s.labels[roots[0]]),          # two components, one label
        ("parent", s.labels[child], child),                # a root joins its own subtree
    ]
    for field, v, value in corruptions:
        s = finished_state()
        getattr(s, field)[v] = value
        with pytest.raises(InvariantViolationError):
            s.audit()
