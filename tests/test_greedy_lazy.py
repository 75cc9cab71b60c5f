"""Lazy-mode runs: per-point bookkeeping, reveal uniformity, trajectories."""
import math
from collections import Counter

import numpy as np
import pytest
from pairing_reference import projected_pairs, validate_pairing

from fdst.errors import InvalidInputError
from fdst.graphs import sample_pairing
from fdst.greedy import run_lazy
from fdst.ode import columns
from fdst.unionfind import UnionFind


def test_initial_sample_is_all_unseen():
    for n, r in ((10, 3), (8, 4)):
        _, traj = run_lazy(n, r, np.random.default_rng(0))
        first = traj.samples[0]
        # x, z_1..z_{r-1} all zero; z_r = 1; zL = zF = 0; zM = r; phase 1
        assert first[0] == 0.0
        assert np.allclose(first[1:r], 0.0)
        assert first[r] == 1.0
        assert first[r + 1] == 0.0 and first[r + 2] == 0.0
        assert first[r + 3] == float(r)
        assert first[r + 4] == 1


def test_invariant_audits_small_runs():
    # audit() recomputes every incremental counter and checks forest acyclicity
    for n, r in ((10, 3), (12, 3), (9, 4), (8, 5)):
        for seed in range(25):
            run_lazy(n, r, np.random.default_rng(seed), sample_stride=1,
                     invariant_checks=True)


def test_guards():
    # odd r*n, r below 3, no vertices, negative n
    for n, r in ((5, 3), (10, 2), (0, 3), (-2, 4)):
        with pytest.raises(InvalidInputError):
            run_lazy(n, r, np.random.default_rng(0))


def test_sample_stride_below_one_is_rejected():
    for stride in (0, -3):
        with pytest.raises(InvalidInputError):
            run_lazy(10, 3, np.random.default_rng(0), sample_stride=stride)


def test_full_fraction_monotone_and_m_linear_decrease():
    _, traj = run_lazy(40, 3, np.random.default_rng(3), sample_stride=1)
    z_f = traj.column("zF")
    assert np.all(np.diff(z_f) >= -1e-12)
    # every pair reveal removes two points and a step reveals at most r
    # pairs; each sample follows one step, the first the start star (r pairs here)
    drop = -np.diff(traj.column("zM")) * traj.n
    pairs = np.round(drop / 2)
    assert np.allclose(drop, 2 * pairs)
    assert pairs[0] == traj.r
    assert np.all((pairs >= 0) & (pairs <= traj.r))


def test_reveals_are_uniform_over_pairings():
    # n=2, r=3: six points admit 15 perfect matchings; the fully revealed
    # pairing of a lazy run must be uniform among them
    counts = Counter()
    runs = 4500
    for seed in range(runs):
        res, _ = run_lazy(2, 3, np.random.default_rng(seed))
        counts[tuple(res.pairing.matches.tolist())] += 1
    assert len(counts) == 15
    expected = runs / 15  # 300; five-sigma band ~ +-85
    for key, c in counts.items():
        assert abs(c - expected) < 90, f"pairing {key} appeared {c} times"


def test_pairing_is_drawn_first_by_sample_pairing():
    for n, r, seed in ((2, 3, 0), (10, 3, 1), (9, 4, 2), (40, 5, 3), (301, 6, 4)):
        res, _ = run_lazy(n, r, np.random.default_rng(seed))
        drawn = sample_pairing(n, r, np.random.default_rng(seed))
        assert np.array_equal(res.pairing.matches, drawn.matches)


def reference_run_lazy(n, r, rng):
    """Lazy mode as an on-demand loop: (full count, phase-1 full count, first fresh step).

    Each unrevealed point of the processed vertex takes its partner
    uniformly from the other unrevealed points, so no pairing exists before
    the run. The leaf and unseen candidates are recounted from the
    unrevealed points at every step.
    """
    hidden = list(range(n * r))
    in_tree = bytearray(n)
    full = 0
    first_fresh_step = phase1 = None
    op, v = 2, int(rng.integers(n))
    t = 0
    while True:
        nbrs = []
        for q in range(v * r, v * r + r):
            if q in hidden:
                hidden.remove(q)
                nbrs.append(hidden.pop(int(rng.integers(len(hidden)))) // r)
        inside = sum(in_tree[w] for w in nbrs)
        if v not in nbrs and len(set(nbrs)) == len(nbrs) and inside <= op - 1:
            full += 1
            in_tree[v] = 1
            for w in nbrs:
                in_tree[w] = 1
        t += 1
        left = Counter(p // r for p in hidden)
        leaves = [w for w in range(n) if in_tree[w] and left[w] == r - 1]
        fresh = [w for w in range(n) if not in_tree[w] and left[w] == r]
        if leaves:
            op, v = 1, leaves[int(rng.integers(len(leaves)))]
        elif fresh:
            if first_fresh_step is None:
                first_fresh_step, phase1 = t, full
            op, v = 2, fresh[int(rng.integers(len(fresh)))]
        else:
            return full, (full if phase1 is None else phase1), first_fresh_step


def _chi2_quantile_999(dof):
    """0.999 quantile of the chi-square law with ``dof`` degrees of freedom."""
    s = dof / 2

    def cdf(x):  # regularised lower incomplete gamma P(s, x/2), by its power series
        h = x / 2
        term = total = 1 / s
        k = 0
        while term > 1e-16 * total:
            k += 1
            term *= h / (s + k)
            total += term
        return total * math.exp(s * math.log(h) - h - math.lgamma(s))

    lo, hi = 0.0, 20.0 * dof + 50
    for _ in range(80):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if cdf(mid) < 0.999 else (lo, mid)
    return hi


def test_chi2_quantile_999_table():
    for dof, q in ((1, 10.828), (2, 13.816), (5, 20.515), (14, 36.123), (69, 111.055)):
        assert abs(_chi2_quantile_999(dof) - q) < 1e-3


def test_law_matches_on_demand_reveals():
    # deferred decisions: the greedy on a pairing drawn up front has the law of
    # the greedy that draws each partner when it reveals it
    runs = 3000
    for n, r in ((6, 3), (8, 4)):
        ours = Counter(
            (res.full_degree_count, res.phase1_full_degree_count,
             None if res.rho1_empirical is None else round(res.rho1_empirical * n))
            for res, _ in (run_lazy(n, r, np.random.default_rng(seed))
                           for seed in range(runs)))
        rng = np.random.default_rng(n * 1000 + r)
        ref = Counter(reference_run_lazy(n, r, rng) for _ in range(runs))
        # equal sample sizes: a bin's expected count is half its pooled count;
        # outcomes pooled below 10 share one bin, which joins the smallest
        # other bin if it is still below 10
        keys = sorted(ours.keys() | ref.keys(), key=lambda k: ours[k] + ref[k])
        bins = [(ours[k], ref[k]) for k in keys if ours[k] + ref[k] >= 10]
        rare = [(ours[k], ref[k]) for k in keys if ours[k] + ref[k] < 10]
        a, b = sum(x for x, _ in rare), sum(y for _, y in rare)
        if a + b >= 10:
            bins.append((a, b))
        elif rare:
            bins[0] = (bins[0][0] + a, bins[0][1] + b)
        stat = sum((x - y) ** 2 / (x + y) for x, y in bins)
        dof = len(bins) - 1
        assert dof >= 3, (n, r, bins)
        assert stat < _chi2_quantile_999(dof), (n, r, stat, dof, bins)


def test_result_tree_is_spanning_forest_of_multigraph():
    for seed in range(30):
        res, _ = run_lazy(20, 3, np.random.default_rng(seed))
        validate_pairing(res.pairing)
        simple_edges = {e for e in projected_pairs(res.pairing) if e[0] != e[1]}
        uf = UnionFind(res.n)
        for u, v in res.tree:
            assert (u, v) in simple_edges
            assert uf.union(u, v)
        # forest spans: number of tree edges = n - number of components
        mg_uf = UnionFind(res.n)
        for u, v in simple_edges:
            mg_uf.union(u, v)
        assert uf.components == mg_uf.components
        assert res.connected == (mg_uf.components == 1)


def test_full_vertices_saturated_in_multigraph():
    for seed in range(20):
        res, _ = run_lazy(16, 4, np.random.default_rng(seed))
        deg = [0] * res.n
        for u, v in res.tree:
            deg[u] += 1
            deg[v] += 1
        for v in res.full_vertices:
            assert deg[v] == res.r


def test_phase_flag_and_phase1_counts():
    res, traj = run_lazy(2000, 3, np.random.default_rng(8))
    phases = traj.column("phase")
    assert np.all(np.diff(phases) >= 0)
    assert res.phase1_full_degree_count <= res.full_degree_count
    if res.rho1_empirical is not None:
        assert 0 < res.rho1_empirical < 1


def test_determinism():
    a, ta = run_lazy(500, 3, np.random.default_rng(21))
    b, tb = run_lazy(500, 3, np.random.default_rng(21))
    assert np.array_equal(a.tree, b.tree)
    assert a.full_degree_count == b.full_degree_count
    assert np.array_equal(ta.samples, tb.samples)


def test_trajectory_matches_ode_moderate_n(ode_r3):
    _, traj = run_lazy(30_000, 3, np.random.default_rng(5))
    xs, states = ode_r3.samples[:, 0], ode_r3.samples[:, 1:-1]
    sim_x = traj.column("x")
    mask = sim_x <= ode_r3.rho2
    for col, name, tol in ((3, "z3", 0.015), (4, "zL", 0.015), (5, "zF", 0.01)):
        ode_vals = np.interp(sim_x[mask], xs, states[:, col - 1])
        dev = np.max(np.abs(traj.samples[mask, col] - ode_vals))
        assert dev < tol, f"{name} deviates by {dev}"
    # spot value: scaled leaf count at x = 0.3
    z_l_sim = float(np.interp(0.3, sim_x, traj.column("zL")))
    z_l_ode = float(np.interp(0.3, xs, states[:, 3]))
    assert abs(z_l_sim - z_l_ode) < 0.01


def test_trajectory_entries_stay_in_range():
    _, traj = run_lazy(3000, 4, np.random.default_rng(2))
    xs = traj.column("x")
    assert np.all(np.diff(xs) > 0)
    values = traj.samples[:, 1:-1]  # all scaled class sizes
    assert np.all(values >= 0.0)
    assert np.all(values <= 4.0)


def test_final_fraction_r4_matches_reference():
    _, traj = run_lazy(100_000, 4, np.random.default_rng(14))
    assert abs(traj.column("zF")[-1] - 0.2699) < 0.01


def test_final_row_and_sampled_phase_flip():
    res, traj = run_lazy(5000, 3, np.random.default_rng(10))
    assert traj.column("zF")[-1] == res.full_degree_count / res.n
    assert len(traj.column("zF")) == len(traj.samples)
    # the sampled phase flip trails the exact step by at most one stride
    assert res.rho1_empirical is not None
    sampled_rho1 = traj.column("x")[traj.column("phase") == 2][0]
    assert sampled_rho1 >= res.rho1_empirical - 1e-12
    assert (sampled_rho1 - res.rho1_empirical) * res.n <= traj.sample_stride + 1e-9


def test_trajectory_column_accessors():
    _, traj = run_lazy(100, 3, np.random.default_rng(1))
    assert ",".join(columns(3)) == "x,z1,z2,z3,zL,zF,zM,phase"
    for i, name in enumerate(columns(3)):
        assert np.array_equal(traj.column(name), traj.samples[:, i])
    with pytest.raises(InvalidInputError):
        traj.column("nope")
    vals = traj.column("zM")
    assert vals[0] == 3.0
    assert np.all(np.diff(vals) <= 0)
