"""Property tests of the greedy loop.

Graph mode runs the lazy-mode loop with the graph's own pairing. The
reference below is the earlier stand-alone graph-mode loop, whose success
rule is "at most one neighbour already in the tree"; on any connected
simple regular graph both must make the same random draws and build the
same tree. Both read their random choices from the same block-drawn
stream of uniforms, and a pool pops index int(u * len) for the next u.
"""
import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fdst.graphs import is_connected, sample_simple_regular
from fdst.greedy import _uniforms, complete_to_spanning_tree, run_lazy, run_on_graph


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
    return complete_to_spanning_tree(sorted(forest), g), full_vertices, phase1, rho1


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
    assert res.tree == tree
    assert res.full_vertices == full_vertices
    assert res.full_degree_count == len(full_vertices)
    assert res.phase1_full_degree_count == phase1
    assert res.rho1_empirical == rho1
    assert rng.bit_generator.state == ref_rng.bit_generator.state


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
