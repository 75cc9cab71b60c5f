"""Configuration-model sampling, projection, simplicity, and graph io."""
from collections import Counter

import numpy as np
import pytest

from fdst.errors import AttemptsExhaustedError, InvalidInputError
from fdst.graphs import (Pairing, graph_from_edges, is_connected, is_simple,
                         project, read_graph, sample_pairing, sample_simple_pairing,
                         sample_simple_regular, write_graph, write_pairing)


def test_pairing_counts_n2_r3(rng):
    p = sample_pairing(2, 3, rng)
    assert len(p.pairs()) == 3
    p.validate()


def test_pairing_is_fixed_point_free_involution():
    for seed in range(25):
        p = sample_pairing(6, 3, np.random.default_rng(seed))
        p.validate()


def test_pairing_determinism():
    a = sample_pairing(4, 3, np.random.default_rng(77))
    b = sample_pairing(4, 3, np.random.default_rng(77))
    assert np.array_equal(a.matches, b.matches)


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
        while not is_simple(mg := project(sample_pairing(12, 3, rng))):
            rejections += 1
        assert g.rejections == rejections
        assert g.adjacency == graph_from_edges(12, mg.edges, r=3).adjacency


def test_sample_simple_regular_is_the_projection_of_sample_simple_pairing():
    for seed in range(20):
        g = sample_simple_regular(12, 3, np.random.default_rng(seed))
        pairing, rejections = sample_simple_pairing(12, 3, np.random.default_rng(seed))
        pairing.validate()
        assert rejections == g.rejections
        assert is_simple(mg := project(pairing))
        assert graph_from_edges(12, mg.edges, r=3).adjacency == g.adjacency


def test_project_single_loop():
    # n=1, r=2: the only pairing matches the two points of the one bucket
    p = Pairing(n=1, r=2, matches=np.array([1, 0]))
    mg = project(p)
    assert mg.edges == [(0, 0)]
    assert not is_simple(mg)


def test_project_double_edge():
    p = Pairing(n=2, r=2, matches=np.array([2, 3, 0, 1]))
    mg = project(p)
    assert mg.edges == [(0, 1), (0, 1)]
    assert not is_simple(mg)


def test_project_preserves_degrees():
    for seed in range(10):
        for n, r in ((6, 3), (5, 4), (4, 5)):
            if (n * r) % 2:
                continue
            mg = project(sample_pairing(n, r, np.random.default_rng(seed)))
            assert mg.degrees() == [r] * n
            assert sum(mg.degrees()) == r * n


def test_is_simple_triple_edge():
    p = Pairing(n=2, r=3, matches=np.array([3, 4, 5, 0, 1, 2]))
    assert not is_simple(project(p))


def test_is_simple_k4_realization():
    # explicit pairing whose projection is K_4: buckets {0,1,2},{3,4,5},{6,7,8},{9,10,11}
    matches = np.array([3, 6, 9, 0, 7, 10, 1, 4, 11, 2, 5, 8])
    p = Pairing(n=4, r=3, matches=matches)
    p.validate()
    mg = project(p)
    assert is_simple(mg)
    assert sorted(mg.edges) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_simplicity_rate_monte_carlo():
    # fraction of n=1000 cubic pairings that project to simple graphs
    hits = 0
    samples = 10_000
    rng = np.random.default_rng(2024)
    for _ in range(samples):
        hits += is_simple(project(sample_pairing(1000, 3, rng)))
    rate = hits / samples
    assert abs(rate - 0.135) < 0.02, f"simplicity rate {rate}"


def test_sample_simple_regular_k4():
    g = sample_simple_regular(4, 3, np.random.default_rng(3))
    g.validate()
    assert g.adjacency == [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]


def test_sample_simple_regular_guards():
    with pytest.raises(InvalidInputError):
        sample_simple_regular(5, 3, np.random.default_rng(0))  # odd r*n
    with pytest.raises(InvalidInputError):
        sample_simple_regular(3, 3, np.random.default_rng(0))  # r > n-1
    with pytest.raises(AttemptsExhaustedError):
        sample_simple_regular(100, 3, np.random.default_rng(0), max_attempts=0)


def test_sample_simple_regular_large_n_few_rejections():
    g = sample_simple_regular(100_000, 3, np.random.default_rng(11))
    g.validate()
    assert g.rejections < 60


def test_sample_simple_regular_determinism():
    a = sample_simple_regular(50, 3, np.random.default_rng(9))
    b = sample_simple_regular(50, 3, np.random.default_rng(9))
    assert a.adjacency == b.adjacency
    assert a.rejections == b.rejections


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
    dup_edge = tmp_path / "bad3.txt"
    dup_edge.write_text("4 3\n0 1\n0 1\n")
    with pytest.raises(InvalidInputError):
        read_graph(dup_edge)


def test_pairing_dump_format(tmp_path):
    p = sample_pairing(2, 3, np.random.default_rng(1))
    path = tmp_path / "pairing.txt"
    write_pairing(p, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    seen = set()
    for line in lines:
        a, b = map(int, line.split())
        assert a < b
        seen.update((a, b))
    assert seen == set(range(6))
