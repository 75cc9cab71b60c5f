"""Property tests of the greedy loop and its completion.

Graph mode runs the lazy-mode loop with the graph's own pairing. The
graph-level reference below is the earlier stand-alone graph-mode loop,
whose success rule is "at most one neighbour already in the tree"; on any
connected simple regular graph both must make the same random draws and
build the same tree. The point-level reference replays lazy mode on the
same pairing with a reveal mark per point, and states the success rule per
point, self-pairs and repeated partners included. All of them read their
random choices from the same block-drawn stream of uniforms, and a pool
pops index int(u * len) for the next u.

Completion has its own reference, the earlier vertex-level one: a
union-find over the forest's edges, then Kruskal over all candidate edges
in lexicographic order. The program joins the components the greedy
labelled while building the forest, scanning only the edges between them.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from pairing_reference import projected_pairs, validate_pairing

from fdst.errors import InvariantViolationError
from fdst.graphs import (graph_from_edges, is_connected, sample_pairing,
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
    """Graph mode as a loop of its own.

    Returns (tree, full vertices, phase-1 count, rho1, steps, forest edges).
    """
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
    return tree, full_vertices, phase1, rho1, t + 1, len(forest)


def reference_run_on_points(n, r, matches, rng):
    """Lazy mode replayed on the pairing ``matches``, one point at a time.

    A step reveals each unrevealed point q of the processed vertex v with
    its partner matches[q]. It fails when a partner point is v's own (a
    self-pair), when two of v's points meet one vertex, or when more than
    op - 1 partner vertices are already in the forest (op 1 for a leaf, 2
    for a fresh vertex). A successful step makes v full and joins it to
    each partner by a forest edge; a partner new to the forest becomes a
    leaf when exactly one of its points is revealed. Returns (forest edges,
    full vertices, steps, first fresh step or None, phase-1 full count,
    unrevealed points at the end).
    """
    draw = _uniforms(rng).__next__
    revealed = bytearray(n * r)
    in_forest = bytearray(n)
    full = []
    forest = []
    leaf_pool = IndexedSet()
    fresh_pool = IndexedSet(range(n))
    t = 0
    first_fresh_step = phase1 = None
    while len(leaf_pool) or len(fresh_pool):
        if len(leaf_pool):
            op, v = 1, leaf_pool.pop_random(draw())
        else:
            if t and first_fresh_step is None:
                first_fresh_step, phase1 = t, len(full)
            op, v = 2, fresh_pool.pop_random(draw())
        partners = []
        clash = False
        for q in range(v * r, v * r + r):
            if revealed[q]:
                continue
            p = matches[q]
            revealed[q] = revealed[p] = 1
            w = p // r
            if w == v or w in partners:
                clash = True
            if w != v:
                partners.append(w)
                # a point of w is revealed: w leaves whichever pool holds it
                leaf_pool.discard(w)
                fresh_pool.discard(w)
        inside = sum(in_forest[w] for w in partners)
        if not clash and inside <= op - 1:
            for w in partners:
                forest.append((min(v, w), max(v, w)))
                if not in_forest[w]:
                    in_forest[w] = 1
                    if sum(revealed[w * r:w * r + r]) == 1:
                        leaf_pool.add(w)
            in_forest[v] = 1
            full.append(v)
        t += 1
    if phase1 is None:
        phase1 = len(full)
    return forest, sorted(full), t, first_fresh_step, phase1, n * r - sum(revealed)


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
    tree, full_vertices, phase1, rho1, steps, forest_size = reference_run_on_graph(g, ref_rng)
    rng = np.random.default_rng(seed)
    res = run_on_graph(g, rng)
    assert res.tree.tolist() == [list(e) for e in tree]
    assert res.full_vertices.tolist() == full_vertices
    assert res.full_degree_count == len(full_vertices)
    assert res.phase1_full_degree_count == phase1
    assert res.rho1_empirical == rho1
    assert res.greedy_steps == steps
    assert res.greedy_components == g.n - forest_size
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(r=st.integers(3, 6), n=st.integers(2, 40), seed=st.integers(0, 2**32))
@example(r=257, n=4, seed=1)  # unrevealed counts in a list, not a bytearray
@example(r=3, n=2, seed=0)  # one step: the start vertex has a self-pair
def test_lazy_mode_matches_point_reference(r, n, seed):
    n += (n * r) % 2
    rng = np.random.default_rng(seed)
    res, traj = run_lazy(n, r, rng)
    ref_rng = np.random.default_rng(seed)
    matches = sample_pairing(n, r, ref_rng).matches.tolist()
    forest, full, steps, first_fresh_step, phase1, unrevealed = reference_run_on_points(
        n, r, matches, ref_rng)
    assert res.full_vertices.tolist() == full
    assert res.greedy_steps == steps
    assert res.rho1_empirical == (first_fresh_step / n if first_fresh_step else None)
    assert res.phase1_full_degree_count == phase1
    assert res.greedy_components == n - len(forest)
    assert set(forest) <= {tuple(e) for e in res.tree.tolist()}
    assert traj.column("x")[-1] == steps / n
    assert traj.column("zM")[-1] == unrevealed / n
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(r=st.integers(3, 5), n=st.integers(1, 40), stride=st.integers(1, 50),
       seed=st.integers(0, 2**32))
@example(r=3, n=40, stride=1, seed=3)  # 27 steps, so 28 rows
def test_trajectory_samples_every_stride_steps_and_the_end(r, n, stride, seed):
    # the state after k steps is at x = k/n: the rows are k = 0, s, 2s, ...
    # below the step count, then the end state
    n += (n * r) % 2
    res, traj = run_lazy(n, r, np.random.default_rng(seed), sample_stride=stride)
    ks = [*range(0, res.greedy_steps, stride), res.greedy_steps]
    assert traj.column("x").tolist() == [k / n for k in ks]


@settings(max_examples=80, deadline=None)
@given(r=st.sampled_from([3, 4, 5]), n=st.integers(4, 16), seed=st.integers(0, 2**32))
def test_run_on_pairing_spans_the_sampled_graph(r, n, seed):
    assume(r < n and n * r % 2 == 0)
    pairing, _ = sample_simple_pairing(n, r, np.random.default_rng(seed))
    g = graph_from_edges(n, projected_pairs(pairing), r=r)
    res = run_on_pairing(pairing, np.random.default_rng(seed + 1))
    assert res.connected == is_connected(g)
    assert {tuple(e) for e in res.tree.tolist()} <= set(g.edges())
    deg = np.bincount(res.tree.ravel(), minlength=n)
    assert np.all(deg[res.full_vertices] == r)


@settings(max_examples=80, deadline=None)
@given(r=st.integers(3, 6), n=st.integers(2, 40), seed=st.integers(0, 2**32))
@example(r=257, n=4, seed=1)  # unrevealed counts in a list, not a bytearray
def test_lazy_mode_invariants(r, n, seed):
    n += (n * r) % 2
    res, _ = run_lazy(n, r, np.random.default_rng(seed), sample_stride=1,
                      invariant_checks=True)  # audits every step
    validate_pairing(res.pairing)
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
    edges = sorted({(u, v) for u, v in projected_pairs(res.pairing) if u != v})
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


def test_audit_rejects_a_cycle_in_the_parents():
    n, r = 40, 3
    rng = np.random.default_rng(5)
    fixed = sample_pairing(n, r, rng).matches.tolist()

    def finished_state():
        s = _State(n, r)
        _greedy(s, np.random.default_rng(6), fixed, None, False)
        s.audit(fixed)
        return s

    s = finished_state()
    child = next(v for v in range(n) if s.parent[v] != v)
    root = child
    while s.parent[root] != root:
        root = s.parent[root]
    s.parent[root] = child  # a root joins its own subtree
    with pytest.raises(InvariantViolationError):
        s.audit(fixed)


def test_audit_recounts_the_unrevealed_points_from_the_pairing():
    # mid-run, one dormant forest leaf loses an unrevealed point and the
    # running total follows: the classes, pools and totals all still agree,
    # and only the recount from the pairing sees the change
    n, r = 60, 4
    fixed = sample_pairing(n, r, np.random.default_rng(7)).matches.tolist()
    s = _State(n, r)
    audit = s.audit

    class Corrupted(Exception):
        pass

    def corrupt_at_first_dormant_leaf(fixed):
        audit(fixed)  # the true state passes
        dormant = [v for v in range(n) if s.in_forest[v] and not s.full[v]
                   and 0 < s.unrevealed[v] < r - 1]
        if dormant:
            s.unrevealed[dormant[0]] -= 1
            s.unrevealed_points -= 1
            with pytest.raises(InvariantViolationError, match="out of sync"):
                audit(fixed)
            raise Corrupted

    s.audit = corrupt_at_first_dormant_leaf
    with pytest.raises(Corrupted):
        _greedy(s, np.random.default_rng(8), fixed, None, True)
