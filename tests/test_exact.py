"""Exact oracles: tree enumeration vs star search, leaf/domination identities,
degree-bound propositions, and the product constructions.

Three references are kept here as earlier versions of the program's search
code. ``reference_tree_extrema`` rebuilds the contracted edge list at every
deletion/contraction node and runs a fresh depth-first search before each
exclude branch; the program walks the same tree order on edge bitmasks.
``reference_lambda_gamma`` tries every vertex subset of each size from the
domination bound ceil(n/(D+1)) upward and searches each covering subset for
connectivity; the program grows connected sets only, from the tree bound
ceil((n-2)/(D-1)). ``reference_star_union_is_forest`` joins the stars edge
by edge in a union-find; the program joins each star to component masks.
"""
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdst.catalog import (are_isomorphic, cycle_graph, named_graph, prism_graph)
from fdst.errors import InvalidInputError, InvariantViolationError, SizeGuardError
from fdst.exact import (TreeExtrema, _tree_with_pendants, check_propositions,
                        construct_grid_torus, construct_prism_torus, exact_result,
                        lambda_gamma_exact, phi_exact_stars, phi_exact_trees,
                        prism_torus_witness, spanning_tree_extrema,
                        star_union_is_forest)
from fdst.graphs import graph_from_edges, sample_simple_regular
from fdst.unionfind import UnionFind


def kirchhoff_count(g):
    """Independent spanning-tree count via the matrix-tree determinant."""
    lap = np.zeros((g.n, g.n))
    for u, v in g.edges():
        lap[u, u] += 1
        lap[v, v] += 1
        lap[u, v] -= 1
        lap[v, u] -= 1
    return round(float(np.linalg.det(lap[1:, 1:])))


def reference_tree_extrema(g):
    """The earlier enumerator: deletion/contraction on a rebuilt edge list."""
    n = g.n
    if n == 1:
        return TreeExtrema(1, 1, [], 0, [])
    deg = [g.degree(v) for v in range(n)]
    deg_t = [0] * n
    chosen = []
    state = {"full": 0, "leaves": 0, "count": 0,
             "best_full": -1, "best_full_tree": None,
             "best_leaves": -1, "best_leaves_tree": None}

    def inc(v):
        old = deg_t[v]
        deg_t[v] = old + 1
        if old == 0:
            state["leaves"] += 1
        elif old == 1:
            state["leaves"] -= 1
        if deg_t[v] == deg[v]:
            state["full"] += 1

    def dec(v):
        if deg_t[v] == deg[v]:
            state["full"] -= 1
        deg_t[v] -= 1
        if deg_t[v] == 0:
            state["leaves"] -= 1
        elif deg_t[v] == 1:
            state["leaves"] += 1

    def rec(edges, labels):
        if len(labels) == 1:
            state["count"] += 1
            if state["full"] > state["best_full"]:
                state["best_full"] = state["full"]
                state["best_full_tree"] = list(chosen)
            if state["leaves"] > state["best_leaves"]:
                state["best_leaves"] = state["leaves"]
                state["best_leaves_tree"] = list(chosen)
            return
        u, v, ou, ov = edges[0]
        chosen.append((ou, ov) if ou < ov else (ov, ou))
        inc(ou)
        inc(ov)
        contracted = []
        for a, b, oa, ob in edges[1:]:
            a = u if a == v else a
            b = u if b == v else b
            if a != b:
                contracted.append((a, b, oa, ob))
        labels.discard(v)
        rec(contracted, labels)
        labels.add(v)
        dec(ou)
        dec(ov)
        chosen.pop()
        rest = edges[1:]
        adj = {}
        for a, b, _, _ in rest:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        seen = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for w in adj.get(x, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == len(labels):
            rec(rest, labels)

    rec([(u, v, u, v) for u, v in g.edges()], set(range(n)))
    return TreeExtrema(state["count"], state["best_full"],
                       sorted(state["best_full_tree"]), state["best_leaves"],
                       sorted(state["best_leaves_tree"]))


def reference_lambda_gamma(g):
    """The earlier CDS search, whose size loop starts at ceil(n/(D+1))."""
    n = g.n
    open_ = [sum(1 << w for w in g.adjacency[v]) for v in range(n)]
    closed = [open_[v] | 1 << v for v in range(n)]
    full = (1 << n) - 1
    for k in range(max(1, -(-n // (g.max_degree() + 1))), n + 1):
        for subset in combinations(range(n), k):
            cover = 0
            for v in subset:
                cover |= closed[v]
            if cover != full:
                continue
            smask = sum(1 << v for v in subset)
            reach = frontier = 1 << subset[0]
            while frontier:
                nxt = 0
                for v in range(n):
                    if frontier >> v & 1:
                        nxt |= open_[v]
                frontier = nxt & smask & ~reach
                reach |= frontier
            if reach == smask:
                cds = list(subset)
                return n - k, k, _tree_with_pendants(g, cds), cds


def reference_star_union_is_forest(g, vertices):
    """The earlier acyclicity test: a union-find over the stars' distinct edges."""
    uf = UnionFind(g.n)
    seen = set()
    for v in vertices:
        for w in g.adjacency[v]:
            e = (v, w) if v < w else (w, v)
            if e in seen:
                continue
            seen.add(e)
            if not uf.union(*e):
                return False
    return True


@st.composite
def connected_graphs(draw, min_n, max_n, max_extra):
    """A random recursive tree, which has pendant vertices, plus extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = sorted({(u, v) for u in range(n) for v in range(u + 1, n)} - edges)
    if others:
        edges |= set(draw(st.lists(st.sampled_from(others), max_size=max_extra)))
    return graph_from_edges(n, sorted(edges))


@pytest.mark.parametrize("name,count", [
    ("k4", 16), ("k33", 81), ("prism", 75), ("cube", 384), ("petersen", 2000),
])
def test_tree_enumeration_count_matches_kirchhoff(name, count):
    g = named_graph(name)
    ext = spanning_tree_extrema(g)
    assert ext.tree_count == count
    assert ext.tree_count == kirchhoff_count(g)


@settings(max_examples=100, deadline=None)
@given(connected_graphs(1, 8, max_extra=12))
# found by a wider random search: on each, the batched last level must take
# an edge that makes both of its ends full
@example(graph_from_edges(7, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 3),
                              (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (4, 6)]))
@example(graph_from_edges(7, [(0, 1), (0, 3), (0, 6), (1, 2), (1, 3), (1, 6),
                              (2, 3), (3, 4), (4, 5)]))
def test_tree_enumeration_matches_reference(g):
    ext = spanning_tree_extrema(g)
    assert ext == reference_tree_extrema(g)
    assert ext.tree_count == kirchhoff_count(g)


def test_tree_enumeration_on_one_and_two_vertices():
    assert spanning_tree_extrema(graph_from_edges(1, [])) == TreeExtrema(1, 1, [], 0, [])
    # two vertices: the batched last level handles the first call
    assert spanning_tree_extrema(graph_from_edges(2, [(0, 1)])) == TreeExtrema(
        1, 2, [(0, 1)], 2, [(0, 1)])


@settings(max_examples=100, deadline=None)
@given(connected_graphs(3, 12, max_extra=20))
def test_cds_search_matches_reference(g):
    assert lambda_gamma_exact(g) == reference_lambda_gamma(g)


def test_cds_search_pinned_at_its_guard():
    # a cubic graph at the CDS guard n=20 whose gamma_C = 10 is above the tree bound 9
    g = sample_simple_regular(20, 3, np.random.default_rng(0))
    res = lambda_gamma_exact(g)
    assert res[:2] == (10, 10)
    assert res[3] == [0, 1, 2, 5, 7, 9, 12, 13, 15, 18]
    assert res == reference_lambda_gamma(g)


def test_cds_start_bound_is_tight_on_c6():
    # gamma_C = n - 2 = ceil((n-2)/(D-1)) for D = 2: the first size tried
    g = named_graph("c6")
    assert lambda_gamma_exact(g) == reference_lambda_gamma(g)
    assert lambda_gamma_exact(g)[1] == 4 == -(-(g.n - 2) // (g.max_degree() - 1))


@settings(max_examples=100, deadline=None)
@given(connected_graphs(1, 9, max_extra=14), st.data())
def test_star_search_matches_enumeration_and_reference(g, data):
    phi, full_set = phi_exact_stars(g)
    assert phi == spanning_tree_extrema(g).max_full
    assert reference_star_union_is_forest(g, full_set)
    vertices = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))
    assert star_union_is_forest(g, vertices) == reference_star_union_is_forest(g, vertices)


@pytest.mark.parametrize("name,phi", [
    ("k4", 1), ("k33", 2), ("prism", 2), ("cube", 2), ("petersen", 4),
])
def test_phi_known_values(name, phi):
    g = named_graph(name)
    phi_t, tree = phi_exact_trees(g)
    phi_s, full_set = phi_exact_stars(g)
    assert phi_t == phi_s == phi
    assert len(full_set) == phi
    assert star_union_is_forest(g, full_set)
    # the witness tree realizes the count
    deg = [0] * g.n
    for u, v in tree:
        deg[u] += 1
        deg[v] += 1
    assert sum(1 for v in range(g.n) if deg[v] == g.degree(v)) == phi_t


def test_phi_cycle_is_n_minus_2():
    for n in (4, 5, 6, 8):
        g = cycle_graph(n)
        assert phi_exact_trees(g)[0] == n - 2
        assert phi_exact_stars(g)[0] == n - 2


def test_phi_stars_on_tree_input_is_n():
    # union of all stars of a tree is the tree itself
    edges = [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]
    g = graph_from_edges(6, edges)
    assert phi_exact_stars(g)[0] == 6


@pytest.mark.parametrize("name,lam,gamma", [
    ("k4", 3, 1), ("k33", 4, 2), ("c6", 2, 4), ("petersen", 6, 4),
])
def test_lambda_gamma_known_values(name, lam, gamma):
    g = named_graph(name)
    got_lam, got_gamma, tree, cds = lambda_gamma_exact(g)
    assert (got_lam, got_gamma) == (lam, gamma)
    assert len(cds) == gamma
    # witness tree: a spanning tree of g with exactly lambda leaves
    uf = UnionFind(g.n)
    deg = [0] * g.n
    assert len(tree) == g.n - 1
    for u, v in tree:
        assert g.has_edge(u, v)
        assert uf.union(u, v)
        deg[u] += 1
        deg[v] += 1
    assert sum(1 for d in deg if d == 1) == lam
    # witness CDS: dominates and induces a connected subgraph
    dominated = set(cds)
    for v in cds:
        dominated.update(g.adjacency[v])
    assert dominated == set(range(g.n))


def test_lambda_via_trees_agrees_with_domination_route(cubic_corpus):
    for graphs in cubic_corpus.values():
        for g in graphs:
            lam_t = spanning_tree_extrema(g).max_leaves
            lam_d, _, _, _ = lambda_gamma_exact(g)
            assert lam_t == lam_d


def test_oracle_agreement_on_cubic_corpus(cubic_corpus):
    assert {n: len(gs) for n, gs in cubic_corpus.items()} == {4: 1, 6: 2, 8: 5}
    for graphs in cubic_corpus.values():
        for g in graphs:
            assert phi_exact_trees(g)[0] == phi_exact_stars(g)[0]


def test_propositions_on_cubic_corpus(cubic_corpus):
    for graphs in cubic_corpus.values():
        for g in graphs:
            res = exact_result(g)
            report = check_propositions(g, res)
            assert report["all_pass"], report


def test_propositions_on_higher_degree_samples():
    graphs = [named_graph("k5"), named_graph("k6"), construct_grid_torus(4, 3)]
    for n, r, seed in ((10, 4, 1), (12, 4, 2), (12, 5, 3)):
        graphs.append(sample_simple_regular(n, r, np.random.default_rng(seed)))
    for g in graphs:
        res = exact_result(g)
        report = check_propositions(g, res)
        assert report["all_pass"], report


def test_k4_proposition_numbers():
    g = named_graph("k4")
    res = exact_result(g)
    assert (res.phi, res.lam, res.gamma_c) == (1, 3, 1)
    report = check_propositions(g, res)
    assert report["phi_lower"]["passed"] and 4 / 7 <= res.phi
    assert report["phi_upper"]["passed"] and res.phi <= 1.0
    assert report["cubic_leaf_identity"]["passed"]


def test_size_guards():
    mk = named_graph("moebius-kantor")
    with pytest.raises(SizeGuardError):
        phi_exact_trees(mk)  # n=16 above the default guard
    with pytest.raises(SizeGuardError):
        lambda_gamma_exact(cycle_graph(25))
    with pytest.raises(SizeGuardError):
        lambda_gamma_exact(cycle_graph(21))  # one above the CDS guard
    with pytest.raises(SizeGuardError):
        phi_exact_stars(cycle_graph(30))


def test_oracles_require_connected_input():
    two_triangles = graph_from_edges(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    with pytest.raises(InvalidInputError):
        phi_exact_trees(two_triangles)
    with pytest.raises(InvalidInputError):
        phi_exact_stars(two_triangles)


def test_prism_torus_construction():
    g = construct_prism_torus(3, 4)
    g.validate()
    assert g.n == 8 and g.r == 3
    assert are_isomorphic(g, prism_graph(4))
    g45 = construct_prism_torus(4, 5)
    g45.validate()
    assert g45.n == 15 and g45.r == 4
    with pytest.raises(InvalidInputError):
        construct_prism_torus(3, 2)


def test_prism_torus_witness_certifies_lower_bound():
    for m in (4, 5, 6):
        g = construct_prism_torus(3, m)
        witness = prism_torus_witness(3, m)
        assert len(witness) == m - 2
        assert star_union_is_forest(g, witness)
        exact_phi, _ = phi_exact_stars(g)
        assert exact_phi >= m - 2


def test_prism_torus_r3_m6_exact_value():
    # the witness bound m-2 is tight here (upper bound allows m-1)
    g = construct_prism_torus(3, 6)
    assert phi_exact_stars(g)[0] == 4
    assert star_union_is_forest(g, prism_torus_witness(3, 6))


def test_grid_torus_construction():
    g = construct_grid_torus(4, 3)
    g.validate()
    assert g.n == 12 and g.r == 4
    g63 = construct_grid_torus(6, 3)
    g63.validate()
    assert g63.n == 27 and g63.r == 6
    with pytest.raises(InvalidInputError):
        construct_grid_torus(5, 3)
    with pytest.raises(InvalidInputError):
        construct_grid_torus(4, 2)


def test_grid_torus_phi_upper_bound():
    g = construct_grid_torus(4, 4)
    assert g.n == 16
    phi, _ = phi_exact_stars(g)
    assert phi <= 4


def test_exact_result_cross_checks(cubic_corpus):
    res = exact_result(named_graph("petersen"))
    assert (res.phi, res.lam, res.gamma_c) == (4, 6, 4)
    assert star_union_is_forest(named_graph("petersen"), res.witness_full_set)


def test_exact_result_reports_the_enumerated_tree_count():
    assert exact_result(named_graph("petersen")).tree_count == 2000
    # above the Kirchhoff limit of the cross-check, so no trees are listed
    g = sample_simple_regular(12, 5, np.random.default_rng(3))
    assert kirchhoff_count(g) > 500_000
    assert exact_result(g).tree_count is None


def test_exact_result_rejects_lambda_disagreement(monkeypatch):
    def off_by_one(g):
        lam, gamma, tree, cds = lambda_gamma_exact(g)
        return lam + 1, gamma, tree, cds

    monkeypatch.setattr("fdst.exact.lambda_gamma_exact", off_by_one)
    with pytest.raises(InvariantViolationError, match="lambda"):
        exact_result(named_graph("petersen"))
