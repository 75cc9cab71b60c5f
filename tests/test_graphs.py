"""Configuration-model sampling, projection, simplicity, and graph io.

Projection and simplicity are checked against the set-based reference in
``pairing_reference``, which the program does not use; so is a pairing's
validity.
"""
from collections import Counter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from pairing_reference import (is_simple, projected_pairs, reference_pairing,
                               reference_simple_pairing, validate_pairing)

from fdst import graphs
from fdst.cli import main
from fdst.errors import AttemptsExhaustedError, InvalidInputError
from fdst.graphs import (Pairing, SimpleGraph, graph_from_edges, is_connected,
                         read_graph, sample_pairing, sample_simple_pairing,
                         sample_simple_regular, write_graph)


def test_pairing_counts_n2_r3(rng):
    p = sample_pairing(2, 3, rng)
    assert len(p.matches) == 6
    assert np.count_nonzero(np.arange(6) < p.matches) == 3  # one p < q per pair
    validate_pairing(p)


def test_pairing_is_fixed_point_free_involution():
    for seed in range(25):
        p = sample_pairing(6, 3, np.random.default_rng(seed))
        validate_pairing(p)


def test_pairing_determinism():
    a = sample_pairing(4, 3, np.random.default_rng(77))
    b = sample_pairing(4, 3, np.random.default_rng(77))
    assert np.array_equal(a.matches, b.matches)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3000), r=st.integers(2, 7), seed=st.integers(0, 2**32))
def test_sample_pairing_is_the_int64_permutation_construction(n, r, seed):
    # the same pairing from the same draws, in four-byte points, and the
    # generator left where the reference leaves it
    if (n * r) % 2:
        n += 1
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    p = sample_pairing(n, r, rng)
    assert p.matches.dtype == np.int32
    assert np.array_equal(p.matches, reference_pairing(n, r, ref))
    assert rng.random() == ref.random()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(5, 60), r=st.integers(3, 4), seed=st.integers(0, 2**32))
def test_sample_simple_pairing_is_the_int64_permutation_construction(n, r, seed):
    if (n * r) % 2:
        n += 1
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    p, rejections = sample_simple_pairing(n, r, rng)
    matches, ref_rejections = reference_simple_pairing(n, r, ref)
    assert p.matches.dtype == np.int32
    assert np.array_equal(p.matches, matches) and rejections == ref_rejections
    assert rng.random() == ref.random()


def test_block_size_is_even():
    # _pairing pairs perm[2i] with perm[2i+1] within a block, so an odd block
    # would split a pair
    assert graphs.BLOCK_SIZE > 0 and graphs.BLOCK_SIZE % 2 == 0


def test_index_dtype_widens_at_2_to_the_31():
    assert graphs.index_dtype(2**31 - 1) == np.int32
    assert graphs.index_dtype(2**31) == np.int64


def test_pairing_rejects_odd_point_count():
    with pytest.raises(InvalidInputError):
        sample_pairing(5, 3, np.random.default_rng(0))
    with pytest.raises(InvalidInputError):
        sample_pairing(3, 1, np.random.default_rng(0))


def _chi_square(counts, expected):
    return sum((c - expected) ** 2 / expected for c in counts)


def test_pairing_distribution_n2_r3():
    # six points have 15 perfect matchings; each must be equally likely
    rng = np.random.default_rng(31)
    counts = Counter(tuple(sample_pairing(2, 3, rng).matches.tolist())
                     for _ in range(6000))
    assert len(counts) == 15
    assert _chi_square(counts.values(), 6000 / 15) < 36.1  # 0.999 quantile, 14 dof


def test_sample_simple_regular_distribution_n6():
    # there are 70 labelled cubic graphs on six vertices; each must be equally likely
    rng = np.random.default_rng(32)
    draws = 14_000
    counts = Counter(tuple(map(tuple, sample_simple_regular(6, 3, rng).adjacency))
                     for _ in range(draws))
    assert len(counts) == 70
    assert _chi_square(counts.values(), draws / 70) < 111.1  # 0.999 quantile, 69 dof


def test_sample_simple_regular_is_rejection_over_sample_pairing():
    # the array sampler accepts the first pairing whose projection is simple
    for seed in range(20):
        g = sample_simple_regular(12, 3, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        rejections = 0
        while not is_simple(pairs := projected_pairs(sample_pairing(12, 3, rng))):
            rejections += 1
        assert sample_simple_pairing(12, 3, np.random.default_rng(seed))[1] == rejections
        assert g.adjacency == graph_from_edges(12, pairs, r=3).adjacency


def test_sample_simple_regular_is_the_projection_of_sample_simple_pairing():
    for seed in range(20):
        g = sample_simple_regular(12, 3, np.random.default_rng(seed))
        pairing, _ = sample_simple_pairing(12, 3, np.random.default_rng(seed))
        validate_pairing(pairing)
        assert is_simple(pairs := projected_pairs(pairing))
        assert graph_from_edges(12, pairs, r=3).adjacency == g.adjacency


def test_reference_projection_of_a_single_loop():
    # n=1, r=2: the only pairing matches the two points of the one bucket
    p = Pairing(n=1, r=2, matches=np.array([1, 0]))
    pairs = projected_pairs(p)
    assert pairs == [(0, 0)]
    assert not is_simple(pairs)


def test_reference_projection_of_a_double_edge():
    p = Pairing(n=2, r=2, matches=np.array([2, 3, 0, 1]))
    pairs = projected_pairs(p)
    assert pairs == [(0, 1), (0, 1)]
    assert not is_simple(pairs)


def test_reference_projection_preserves_degrees():
    for seed in range(10):
        for n, r in ((6, 3), (5, 4), (4, 5)):
            if (n * r) % 2:
                continue
            pairs = projected_pairs(sample_pairing(n, r, np.random.default_rng(seed)))
            assert len(pairs) == r * n // 2
            # a loop counts twice at its vertex
            assert np.bincount(np.ravel(pairs), minlength=n).tolist() == [r] * n


def test_reference_is_simple_refuses_a_triple_edge():
    p = Pairing(n=2, r=3, matches=np.array([3, 4, 5, 0, 1, 2]))
    assert not is_simple(projected_pairs(p))


def test_reference_is_simple_accepts_a_k4_realization():
    # explicit pairing whose projection is K_4: buckets {0,1,2},{3,4,5},{6,7,8},{9,10,11}
    matches = np.array([3, 6, 9, 0, 7, 10, 1, 4, 11, 2, 5, 8])
    p = Pairing(n=4, r=3, matches=matches)
    validate_pairing(p)
    pairs = projected_pairs(p)
    assert is_simple(pairs)
    assert sorted(pairs) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_simplicity_rate_monte_carlo():
    # fraction of n=1000 cubic pairings that project to simple graphs
    hits = 0
    samples = 10_000
    rng = np.random.default_rng(2024)
    for _ in range(samples):
        hits += is_simple(projected_pairs(sample_pairing(1000, 3, rng)))
    rate = hits / samples
    assert abs(rate - 0.135) < 0.02, f"simplicity rate {rate}"


def test_sample_simple_regular_k4():
    g = sample_simple_regular(4, 3, np.random.default_rng(3))
    g.validate()
    assert g.adjacency == [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]


def test_sample_simple_regular_guards(monkeypatch):
    with pytest.raises(InvalidInputError):
        sample_simple_regular(5, 3, np.random.default_rng(0))  # odd r*n
    with pytest.raises(InvalidInputError):
        sample_simple_regular(3, 3, np.random.default_rng(0))  # r > n-1
    monkeypatch.setattr(graphs, "MAX_ATTEMPTS", 0)
    with pytest.raises(AttemptsExhaustedError):
        sample_simple_regular(100, 3, np.random.default_rng(0))


def test_sample_simple_regular_large_n_few_rejections():
    g = sample_simple_regular(100_000, 3, np.random.default_rng(11))
    g.validate()
    assert sample_simple_pairing(100_000, 3, np.random.default_rng(11))[1] < 60


def test_sample_simple_regular_determinism():
    a = sample_simple_regular(50, 3, np.random.default_rng(9))
    b = sample_simple_regular(50, 3, np.random.default_rng(9))
    assert a.adjacency == b.adjacency
    assert (sample_simple_pairing(50, 3, np.random.default_rng(9))[1]
            == sample_simple_pairing(50, 3, np.random.default_rng(9))[1])


def test_sampled_cubic_graphs_connected():
    # known to hold with overwhelming probability; report any counterexample
    disconnected = []
    for seed in range(100):
        g = sample_simple_regular(1000, 3, np.random.default_rng(seed))
        if not is_connected(g):
            disconnected.append(seed)
    assert not disconnected, f"disconnected samples at seeds {disconnected}"


def test_is_connected():
    k4 = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], r=3)
    assert is_connected(k4)
    two_k4 = graph_from_edges(8, [(u, v) for u in range(4) for v in range(u + 1, 4)]
                              + [(4 + u, 4 + v) for u in range(4) for v in range(u + 1, 4)])
    assert not is_connected(two_k4)
    assert not is_connected(graph_from_edges(0, []))


def test_graph_file_roundtrip(tmp_path):
    g = sample_simple_regular(20, 3, np.random.default_rng(5))
    path = tmp_path / "g.txt"
    write_graph(g, path)
    h = read_graph(path)
    assert h.n == g.n and h.r == g.r and h.adjacency == g.adjacency


def test_graph_file_validation(tmp_path):
    bad_degree = tmp_path / "bad1.txt"
    bad_degree.write_text("3 3\n0 1\n1 2\n")
    with pytest.raises(InvalidInputError):
        read_graph(bad_degree)
    bad_edge = tmp_path / "bad2.txt"
    bad_edge.write_text("4 3\n1 0\n")
    with pytest.raises(InvalidInputError):
        read_graph(bad_edge)
    # n*r/2 edges, so the edge count passes and the repeat itself is refused
    dup_edge = tmp_path / "bad3.txt"
    dup_edge.write_text("4 3\n0 1\n0 1\n0 2\n0 3\n1 2\n1 3\n")
    with pytest.raises(InvalidInputError, match="repeated neighbor"):
        read_graph(dup_edge)
    assert main(["exact", "--graph-file", str(dup_edge)]) == 2
    # n*r/2 edges again, but vertices 0 and 1 have degree 4 and 2 and 5 degree 2
    irregular = tmp_path / "bad4.txt"
    irregular.write_text("6 3\n0 1\n0 3\n0 4\n0 5\n1 3\n1 4\n1 5\n2 3\n2 4\n")
    with pytest.raises(InvalidInputError, match="vertex 0 has degree 4 != 3"):
        read_graph(irregular)
    assert main(["exact", "--graph-file", str(irregular)]) == 2


def test_graph_from_edges_refuses_out_of_range_ends():
    for edge in ((0, 3), (3, 0), (-1, 2)):
        with pytest.raises(InvalidInputError, match="out of range"):
            graph_from_edges(3, [edge])


@pytest.mark.parametrize("adjacency, message", [
    ([[0, 1], [0]], "loop at vertex 0"),
    ([[1, 1], [0, 0]], "repeated neighbor at vertex 0"),
    ([[1, 2], [0]], "neighbor 2 out of range"),
    ([[1], []], r"asymmetric edge \(0, 1\)"),
], ids=["loop", "repeated-neighbor", "out-of-range", "asymmetric"])
def test_validate_refuses_malformed_adjacency(adjacency, message):
    with pytest.raises(InvalidInputError, match=message):
        SimpleGraph(n=len(adjacency), adjacency=adjacency).validate()
