"""Exact oracles: tree enumeration vs star search, leaf/domination identities,
degree-bound propositions, and the product constructions."""
import numpy as np
import pytest

from fdst.catalog import (are_isomorphic, cycle_graph, named_graph, prism_graph)
from fdst.errors import InvalidInputError, InvariantViolationError, SizeGuardError
from fdst.exact import (check_propositions, construct_grid_torus,
                        construct_prism_torus, exact_result,
                        lambda_exact_trees, lambda_gamma_exact,
                        phi_exact_stars, phi_exact_trees, prism_torus_witness,
                        spanning_tree_extrema, star_union_is_forest)
from fdst.graphs import graph_from_edges, sample_simple_regular


def kirchhoff_count(g):
    """Independent spanning-tree count via the matrix-tree determinant."""
    lap = np.zeros((g.n, g.n))
    for u, v in g.edges():
        lap[u, u] += 1
        lap[v, v] += 1
        lap[u, v] -= 1
        lap[v, u] -= 1
    return round(float(np.linalg.det(lap[1:, 1:])))


@pytest.mark.parametrize("name,count", [
    ("k4", 16), ("k33", 81), ("prism", 75), ("cube", 384), ("petersen", 2000),
])
def test_tree_enumeration_count_matches_kirchhoff(name, count):
    g = named_graph(name)
    ext = spanning_tree_extrema(g)
    assert ext.tree_count == count
    assert ext.tree_count == kirchhoff_count(g)


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
    from fdst.unionfind import UnionFind
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
            lam_t, _ = lambda_exact_trees(g)
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
        res = exact_result(g, tree_guard=12)
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


def test_exact_result_rejects_lambda_disagreement(monkeypatch):
    def off_by_one(g, max_vertices=20):
        lam, gamma, tree, cds = lambda_gamma_exact(g, max_vertices)
        return lam + 1, gamma, tree, cds

    monkeypatch.setattr("fdst.exact.lambda_gamma_exact", off_by_one)
    with pytest.raises(InvariantViolationError, match="lambda"):
        exact_result(named_graph("petersen"))
