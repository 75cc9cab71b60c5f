"""Exact oracles: the spanning-tree DP vs star search, leaf/domination
identities, degree-bound propositions, and the product constructions.

Four references are kept here as earlier versions of the program's search
code. ``reference_tree_extrema`` lists every spanning tree by
deletion/contraction on a rebuilt edge list, with a fresh depth-first search
before each exclude branch. ``listing_tree_extrema`` lists the same trees in
the same order on edge bitmasks. The program counts and scores them with a
frontier DP instead, which keeps no tree, so both return only the count and
the two maxima. ``reference_lambda_gamma`` tries every vertex subset
of each size from the domination bound ceil(n/(D+1)) upward and searches
each covering subset for connectivity; the program grows connected sets
only, from the tree bound ceil((n-2)/(D-1)). ``reference_star_union_is_forest``
joins the stars edge by edge in a union-find; the program joins each star to
component masks.
"""
import hashlib
import json
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fdst.catalog import complete_graph, cycle_graph, named_graph, prism_graph
from fdst.cli import main
from fdst.errors import InvalidInputError, InvariantViolationError
from fdst.exact import (MAX_FRONTIER, TREE_COUNT_LIMIT, TREE_GUARD, TreeExtrema,
                        _frontier_edge_order, _neighbour_masks, _tree_with_pendants,
                        check_propositions, construct_grid_torus, construct_prism_torus,
                        exact_result, kirchhoff_tree_count, lambda_gamma_exact,
                        phi_exact_stars, prism_torus_witness, spanning_tree_extrema,
                        star_union_is_forest)
from fdst.graphs import graph_from_edges, is_connected, sample_simple_regular
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
        return TreeExtrema(1, 1, 0)
    deg = [g.degree(v) for v in range(n)]
    deg_t = [0] * n
    state = {"full": 0, "leaves": 0, "count": 0, "best_full": -1, "best_leaves": -1}

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
            state["best_full"] = max(state["best_full"], state["full"])
            state["best_leaves"] = max(state["best_leaves"], state["leaves"])
            return
        u, v, ou, ov = edges[0]
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
    return TreeExtrema(state["count"], state["best_full"], state["best_leaves"])


def listing_tree_extrema(g):
    """The bitmask enumerator: deletion/contraction listing one tree at a time.

    The lowest remaining edge is the pivot, and the branch that keeps it runs
    before the branch that drops it. ``R`` is the mask of remaining edges;
    each super-vertex keeps the mask of edges with exactly one end in it, so
    a contraction is ``cut[A] ^ cut[B]``. When two super-vertices remain,
    each edge left in ``R`` completes one tree, scored in a batch.
    """
    n = g.n
    nbrs = _neighbour_masks(g)  # per vertex: its neighbours along edges not dropped
    if n == 1:
        return TreeExtrema(1, 1, 0)
    ends = g.edges()
    # gains of one more tree edge at v, indexed by v's tree degree before it
    full_gain = [[int(k + 1 == g.degree(v)) for k in range(g.degree(v))]
                 for v in range(n)]
    leaf_gain = [1, -1] + [0] * g.max_degree()
    deg_t = [0] * n
    cut = [0] * n
    for i, (u, v) in enumerate(ends):
        cut[u] |= 1 << i
        cut[v] |= 1 << i
    comp = list(range(n))
    members = [[v] for v in range(n)]
    last = n - 2
    best = {"count": 0, "full": -1, "leaves": -1}

    def reaches(a, b):
        reach = frontier = 1 << a
        while frontier and not reach >> b & 1:
            nxt = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                nxt |= nbrs[bit.bit_length() - 1]
            frontier = nxt & ~reach
            reach |= frontier
        return reach >> b & 1

    def rec(R, full, leaves, taken):
        if taken == last:
            best["count"] += R.bit_count()
            while R:
                low = R & -R
                R ^= low
                a, b = ends[low.bit_length() - 1]
                da, db = deg_t[a], deg_t[b]
                best["full"] = max(best["full"], full + full_gain[a][da] + full_gain[b][db])
                best["leaves"] = max(best["leaves"], leaves + leaf_gain[da] + leaf_gain[db])
            return
        low = R & -R
        a, b = ends[low.bit_length() - 1]
        A, B = comp[a], comp[b]
        cut_a, cut_b = cut[A], cut[B]
        between = cut_a & cut_b
        if len(members[A]) < len(members[B]):
            A, B = B, A
        kept = cut[A]
        moved = members[B]
        for v in moved:
            comp[v] = A
        members[A] += moved
        cut[A] = cut_a ^ cut_b
        da, db = deg_t[a], deg_t[b]
        deg_t[a] = da + 1
        deg_t[b] = db + 1
        rec(R & ~between, full + full_gain[a][da] + full_gain[b][db],
            leaves + leaf_gain[da] + leaf_gain[db], taken + 1)
        deg_t[a] = da
        deg_t[b] = db
        cut[A] = kept
        del members[A][-len(moved):]
        for v in moved:
            comp[v] = B
        # drop the pivot only if the rest stays connected
        R ^= low
        parallel = between & R
        if not parallel and not (cut_a & R and cut_b & R):
            return
        nbrs[a] ^= 1 << b
        nbrs[b] ^= 1 << a
        if parallel or reaches(a, b):
            rec(R, full, leaves, taken)
        nbrs[a] ^= 1 << b
        nbrs[b] ^= 1 << a

    rec((1 << len(ends)) - 1, 0, 0, 0)
    return TreeExtrema(best["count"], best["full"], best["leaves"])


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


@st.composite
def dense_connected_graphs(draw):
    """A graph on 4 <= n <= 9 vertices with edge density 0.2 <= p <= 0.95, kept when connected.

    Each vertex pair is an edge when its drawn number in [0, 1] falls below
    p. Dense graphs reach the DP's wide frontiers, up to n - 1 =
    MAX_FRONTIER, which ``connected_graphs``' sparse draws almost never do.
    """
    n = draw(st.integers(4, 9))
    p = draw(st.floats(0.2, 0.95))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = graph_from_edges(n, [e for e in pairs if draw(st.floats(0, 1)) < p])
    assume(is_connected(g))
    return g


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


@pytest.mark.parametrize("n,r,seeds", [(12, 3, (1, 2, 3)), (10, 4, (1, 2, 3)), (11, 4, (1,))])
def test_tree_dp_matches_listing_on_exact_workload_classes(n, r, seeds):
    # the classes whose trees ``fdst exact`` counts in its cross-check
    for seed in seeds:
        g = sample_simple_regular(n, r, np.random.default_rng(seed))
        assert spanning_tree_extrema(g) == listing_tree_extrema(g)


@pytest.mark.parametrize("n,r", [(14, 3), (16, 3), (18, 3), (20, 3), (12, 4), (14, 4)])
def test_tree_dp_beyond_the_cross_check_guard(n, r):
    # ``exact_result`` runs the DP only up to TREE_GUARD; the DP itself must
    # agree with the determinant and both searches on larger graphs too
    g = sample_simple_regular(n, r, np.random.default_rng(1))
    ext = spanning_tree_extrema(g)
    assert ext.tree_count == kirchhoff_tree_count(g)
    assert ext.max_full == phi_exact_stars(g)[0]
    assert ext.max_leaves == lambda_gamma_exact(g)[0]


@settings(max_examples=100, deadline=None)
@given(dense_connected_graphs())
@example(complete_graph(9))  # width n - 1 = MAX_FRONTIER
def test_tree_dp_matches_kirchhoff_and_both_searches_on_dense_graphs(g):
    ext = spanning_tree_extrema(g)
    assert ext.tree_count == kirchhoff_count(g)
    assert ext.max_full == phi_exact_stars(g)[0]
    assert ext.max_leaves == lambda_gamma_exact(g)[0]


@settings(max_examples=50, deadline=None)
@given(st.one_of(connected_graphs(1, 9, max_extra=14), dense_connected_graphs()), st.data())
def test_tree_dp_is_invariant_under_relabelling(g, data):
    # the edge order depends on the labels; the count and the maxima must not
    perm = data.draw(st.permutations(range(g.n)))
    relabelled = graph_from_edges(g.n, sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges()))
    assert spanning_tree_extrema(relabelled) == spanning_tree_extrema(g)


def test_tree_dp_edge_order_starts_where_the_frontier_is_narrowest():
    # a path with 0 in its middle: BFS from the end 3 keeps one frontier vertex
    path = graph_from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 4)])
    (width, _), edges = _frontier_edge_order(path)
    assert edges == [(1, 3), (0, 1), (0, 2), (2, 4)]
    assert width == 1


@settings(max_examples=200, deadline=None)
@given(st.one_of(connected_graphs(2, 9, max_extra=36), connected_graphs(10, 12, max_extra=20)))
@example(complete_graph(9))  # width n - 1 = MAX_FRONTIER
# the widest of a hill climb toward wide orders inside the gate: width 7, 358 357 trees
@example(graph_from_edges(12, [(0, 2), (0, 9), (0, 10), (0, 11), (1, 2), (1, 4), (1, 5),
                               (1, 6), (1, 8), (1, 10), (1, 11), (2, 3), (2, 4), (2, 7),
                               (3, 10), (4, 5), (4, 7), (4, 8), (5, 6), (5, 9), (6, 7),
                               (6, 9), (6, 11), (8, 9), (8, 11)]))
def test_tree_dp_frontier_width_bounds(g):
    # the frontier lies within the BFS positions up to the current edge's
    # later end, and never holds both the start and the last vertex
    (width, _), _ = _frontier_edge_order(g)
    assert width <= g.n - 1
    # so every graph with n <= MAX_FRONTIER + 1 is admitted, and so is every
    # graph that ``exact_result`` cross-checks
    if g.n <= TREE_GUARD and kirchhoff_tree_count(g) <= TREE_COUNT_LIMIT:
        assert width <= MAX_FRONTIER


def test_tree_enumeration_on_one_and_two_vertices():
    assert spanning_tree_extrema(graph_from_edges(1, [])) == TreeExtrema(1, 1, 0)
    # two vertices: the batched last level handles the first call
    assert spanning_tree_extrema(graph_from_edges(2, [(0, 1)])) == TreeExtrema(1, 2, 2)


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
    phi_s, full_set = phi_exact_stars(g)
    assert spanning_tree_extrema(g).max_full == phi_s == phi
    assert len(full_set) == phi
    assert star_union_is_forest(g, full_set)


def test_phi_cycle_is_n_minus_2():
    for n in (4, 5, 6, 8):
        g = cycle_graph(n)
        assert spanning_tree_extrema(g).max_full == n - 2
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
            assert spanning_tree_extrema(g).max_full == phi_exact_stars(g)[0]


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
    # phi >= n/(D(D-1)+1) = 4/7
    assert report["phi_lower"]["passed"]
    assert report["phi_lower"]["value"] == 1
    assert report["phi_lower"]["slack"] == pytest.approx(1 - 4 / 7)
    assert report["phi_upper"]["passed"] and res.phi <= 1.0
    assert report["cubic_leaf_identity"]["passed"]


def test_k5_proposition_numbers():
    g = named_graph("k5")
    res = exact_result(g)
    assert (res.phi, res.lam, res.gamma_c) == (1, 4, 1)
    report = check_propositions(g, res)
    # phi >= n/(D(D-1)+1) = 5/13
    assert report["phi_lower"]["value"] == 1
    assert report["phi_lower"]["slack"] == pytest.approx(1 - 5 / 13)
    # lambda >= (r-2)*phi + 2 = 4 holds with equality at r = 4
    assert report["leaf_lower_bound"]["passed"]
    assert report["leaf_lower_bound"]["value"] == 4
    assert report["leaf_lower_bound"]["slack"] == 0


@pytest.mark.parametrize("n", [12, 14, 16, 18])
def test_kirchhoff_count_is_exact_on_complete_graphs(n):
    # Cayley: n^(n-2); a float determinant is already off at n = 16
    g = graph_from_edges(n, list(combinations(range(n), 2)))
    assert kirchhoff_tree_count(g) == n ** (n - 2)


def test_kirchhoff_count_is_zero_when_disconnected():
    two_triangles = graph_from_edges(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert kirchhoff_tree_count(two_triangles) == 0


def test_size_guards():
    with pytest.raises(InvalidInputError, match="guarded at n <= 20, got 21"):
        spanning_tree_extrema(cycle_graph(21))  # one above the search guard
    with pytest.raises(InvalidInputError, match="frontier width <= 8, got 9"):
        spanning_tree_extrema(complete_graph(10))
    with pytest.raises(InvalidInputError, match="guarded"):
        lambda_gamma_exact(cycle_graph(25))
    with pytest.raises(InvalidInputError, match="guarded"):
        lambda_gamma_exact(cycle_graph(21))  # one above the search guard
    with pytest.raises(InvalidInputError, match="guarded"):
        phi_exact_stars(cycle_graph(30))


def test_star_search_shares_the_cds_guard(capsys):
    # a cubic n=22 prism torus is refused by the star search itself, before
    # any search runs, and the command exits 2 on it
    g = construct_prism_torus(3, 11)
    assert g.n == 22
    with pytest.raises(InvalidInputError, match="star search guarded at n <= 20"):
        phi_exact_stars(g)
    assert main(["exact", "--construction", "prism r=3 m=11"]) == 2
    assert capsys.readouterr().err.startswith("error: star search guarded")


def test_oracles_require_connected_input():
    two_triangles = graph_from_edges(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    for oracle in (spanning_tree_extrema, phi_exact_stars, lambda_gamma_exact):
        with pytest.raises(InvalidInputError, match="requires a connected graph"):
            oracle(two_triangles)
    for oracle in (spanning_tree_extrema, phi_exact_stars, lambda_gamma_exact, exact_result):
        with pytest.raises(InvalidInputError, match="requires a connected graph"):
            oracle(graph_from_edges(0, []))


def test_prism_torus_construction():
    g = construct_prism_torus(3, 4)
    g.validate()
    assert g.n == 8 and g.r == 3
    # v -> 4 (v mod 2) + v // 2 is an isomorphism onto K_2 x C_4
    mapped = sorted(tuple(sorted((4 * (u % 2) + u // 2, 4 * (v % 2) + v // 2)))
                    for u, v in g.edges())
    assert mapped == prism_graph(4).edges()
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


# sha256 of the JSON list of adjacency lists of each family, in parameter
# order; recorded from the hand-indexed builders that cartesian_product replaced
PRODUCT_PINS = {
    "prism_graph": (lambda: [prism_graph(m) for m in range(3, 9)],
                    "4459b0e64108cad2b5bcd6c41414b095828d5e2cfa6c17a9688dd24e99c917d0"),
    "construct_prism_torus": (
        lambda: [construct_prism_torus(r, m) for r in range(3, 7) for m in range(3, 7)],
        "77ff321a0822d54c2a5e37287740d23376a71d1e5c1f636e28dc1dde42819964"),
    "construct_grid_torus": (
        lambda: [construct_grid_torus(delta, m) for delta in (4, 6) for m in range(3, 6)],
        "c2240295e2988db94590598e4cb67ac0782efd3945d0ba0aef2a2be124880c67"),
}


@pytest.mark.parametrize("family", sorted(PRODUCT_PINS))
def test_product_graph_labellings_are_pinned(family):
    build, sha = PRODUCT_PINS[family]
    adjacency = json.dumps([g.adjacency for g in build()]).encode()
    assert hashlib.sha256(adjacency).hexdigest() == sha


def test_exact_result_cross_checks(cubic_corpus):
    res = exact_result(named_graph("petersen"))
    assert (res.phi, res.lam, res.gamma_c) == (4, 6, 4)
    assert star_union_is_forest(named_graph("petersen"), res.witness_full_set)


@st.composite
def exact_small_graphs(draw):
    """A connected graph of one of the benchmark's exact_small classes with n <= 12."""
    n, r = draw(st.sampled_from([(12, 3), (10, 4), (11, 4), (12, 5)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = sample_simple_regular(n, r, rng)
    while not is_connected(g):
        g = sample_simple_regular(n, r, rng)
    return g


@settings(max_examples=100, deadline=None)
@given(st.one_of(connected_graphs(3, 9, max_extra=14), exact_small_graphs()))
def test_exact_result_witnesses_certify_their_numbers(g):
    res = exact_result(g)
    # the full set: phi vertices whose stars' union is a forest
    assert len(set(res.witness_full_set)) == res.phi
    assert reference_star_union_is_forest(g, res.witness_full_set)
    # the tree: n - 1 edges of g that join every vertex, lambda of them leaves
    assert len(res.witness_tree) == g.n - 1
    uf = UnionFind(g.n)
    deg = [0] * g.n
    for u, v in res.witness_tree:
        assert g.has_edge(u, v)
        assert uf.union(u, v)
        deg[u] += 1
        deg[v] += 1
    assert deg.count(1) == res.lam
    # the CDS: gamma_C vertices that dominate g and induce a connected subgraph
    cds = set(res.witness_cds)
    assert len(cds) == res.gamma_c
    assert cds.union(*(g.adjacency[v] for v in cds)) == set(range(g.n))
    uf = UnionFind(g.n)
    for u, v in g.edges():
        if u in cds and v in cds:
            uf.union(u, v)
    assert len({uf.find(v) for v in cds}) == 1


def test_exact_result_reports_the_enumerated_tree_count():
    assert exact_result(named_graph("petersen")).tree_count == 2000
    # above the Kirchhoff limit of the cross-check, so no trees are listed
    g = sample_simple_regular(12, 5, np.random.default_rng(3))
    assert kirchhoff_count(g) > 500_000
    assert exact_result(g).tree_count is None


@pytest.mark.parametrize("name, off_by_one, message", [
    ("phi_exact_stars", lambda g: (phi_exact_stars(g)[0] + 1, phi_exact_stars(g)[1]),
     "stars say"),
    ("lambda_gamma_exact", lambda g: (lambda_gamma_exact(g)[0] + 1,
                                      *lambda_gamma_exact(g)[1:]), "lambda"),
    ("kirchhoff_tree_count", lambda g: kirchhoff_tree_count(g) + 1, "determinant says"),
], ids=["phi", "lambda", "tree-count"])
def test_exact_result_rejects_a_disagreement(monkeypatch, capsys, name, off_by_one, message):
    # each cross-check of exact_result catches its oracle being off by one
    monkeypatch.setattr(f"fdst.exact.{name}", off_by_one)
    with pytest.raises(InvariantViolationError, match=message):
        exact_result(named_graph("petersen"))
    if name == "phi_exact_stars":
        assert main(["exact", "--graph", "petersen"]) == 3
        assert capsys.readouterr().err.startswith("internal error: oracle disagreement")
