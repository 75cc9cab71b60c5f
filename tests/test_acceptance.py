"""Acceptance gate: every release criterion at its pinned tolerance.

Each test prints one [PASS]/[FAIL] line (visible with -s or -rA) and
asserts the same condition, so a plain pytest run is the gate.
"""
import numpy as np
import pytest

from fdst import harness
from fdst.catalog import named_graph
from fdst.constants import (FULL_DEGREE_FRACTION, PHASE_BOUNDARIES,
                            PHASE_VALUE_TOLERANCE, TABLE_TOLERANCE)
from fdst.exact import (construct_grid_torus, construct_prism_torus,
                        lambda_gamma_exact, phi_exact_stars, phi_exact_trees,
                        prism_torus_witness, spanning_tree_extrema,
                        star_union_is_forest)
from fdst.graphs import sample_simple_regular
from fdst.greedy import run_on_graph
from fdst.ode import analytic_phase1, integrate_two_phase
from fdst.unionfind import UnionFind


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_table_reproduction(table1):
    rep, _ = table1
    assert [row["r"] for row in rep["rows"]] == list(range(3, 11))
    for row in rep["rows"]:
        assert row["f_r_reference"] == FULL_DEGREE_FRACTION[row["r"]]
        assert row["u_r"] == 1.0 / (row["r"] - 1)
    ok = rep["all_within_tolerance"] and rep["elapsed_seconds"] < 60.0
    report(1, ok,
           f"max |f_r - reference| = {rep['max_abs_delta']:.2e} "
           f"(tol {TABLE_TOLERANCE}), runtime {rep['elapsed_seconds']:.1f}s < 60s")


def test_criterion_02_phase_boundaries_r3(ode_r3):
    ref = PHASE_BOUNDARIES[3]
    end = ode_r3.phase1_end_state
    values = {
        "rho1": (ode_r3.rho1, ref["rho1"]),
        "rho2": (ode_r3.rho2, ref["rho2"]),
        "z1": (end[0], ref["z1"]),
        "z2": (end[1], ref["z2"]),
        "z3": (end[2], ref["z3"]),
        "zL": (end[3], ref["zL"]),
        "zF": (end[4], ref["zF"]),
    }
    worst = max(abs(a - b) for a, b in values.values())
    report(2, worst <= PHASE_VALUE_TOLERANCE,
           f"r=3 boundary values within {worst:.2e} (tol {PHASE_VALUE_TOLERANCE})")


def test_criterion_03_phase_boundaries_r4(ode_r4):
    ref = PHASE_BOUNDARIES[4]
    end = ode_r4.phase1_end_state
    values = {
        "rho1": (ode_r4.rho1, ref["rho1"]),
        "rho2": (ode_r4.rho2, ref["rho2"]),
        "z1": (end[0], ref["z1"]),
        "z2": (end[1], ref["z2"]),
        "z3": (end[2], ref["z3"]),
        "z4": (end[3], ref["z4"]),
        "zM": (end[6], ref["zM"]),
    }
    worst = max(abs(a - b) for a, b in values.values())
    report(3, worst <= PHASE_VALUE_TOLERANCE,
           f"r=4 boundary values within {worst:.2e} (tol {PHASE_VALUE_TOLERANCE})")


def test_criterion_04_closed_forms(table1):
    _, solutions = table1
    worst = 0.0
    for r, res in solutions.items():
        xs = res.phase1.xs
        z_m, z_r = analytic_phase1(r, xs)
        worst = max(worst,
                    float(np.max(np.abs(res.phase1.states[:, r + 2] - z_m))),
                    float(np.max(np.abs(res.phase1.states[:, r - 1] - z_r))))
    report(4, worst <= 1e-6,
           f"phase-1 z_M/z_r closed forms, sup deviation {worst:.2e} over r=3..10")


def test_criterion_05_simulation_concentration(sim_batch_r3, ode_r3):
    records, trajs, elapsed = sim_batch_r3
    sol = ode_r3.samples
    finals = [rec["full_degree_count"] / rec["n"] for rec in records]
    mean_dev = abs(float(np.mean(finals)) - 0.4591)
    worst_sup = 0.0
    for traj in trajs:
        devs = harness.sup_deviations(3, traj.samples, sol)
        worst_sup = max(worst_sup, max(devs.values()))
    ok = mean_dev <= 0.005 and worst_sup <= 0.01 and elapsed < 120.0
    report(5, ok,
           f"mean F/n dev {mean_dev:.4f} (tol 0.005), worst trajectory sup "
           f"{worst_sup:.4f} (tol 0.01), 10 trials in {elapsed:.1f}s < 120s")


def test_criterion_06_phase1_empirical_checkpoint(sim_batch_r3):
    records, _, _ = sim_batch_r3
    rho_devs = [abs(rec["rho1_empirical"] - 0.6485) for rec in records]
    f_devs = [abs(rec["phase1_full_degree_count"] / rec["n"] - 0.4375)
              for rec in records]
    ok = max(rho_devs) <= 0.01 and max(f_devs) <= 0.01
    report(6, ok,
           f"first fresh-vertex step at 0.6485 +- {max(rho_devs):.4f}, "
           f"F/n there 0.4375 +- {max(f_devs):.4f} (tol 0.01), all 10 trials")


def test_criterion_07_oracle_cross_validation(cubic_corpus):
    checked = 0
    # exhaustive cubic corpus plus the named cubic graphs
    named = [named_graph(name) for name in ("k33", "prism", "petersen")]
    mk = named_graph("moebius-kantor")
    for g in [g for gs in cubic_corpus.values() for g in gs] + named:
        phi_t, _ = phi_exact_trees(g)
        phi_s, _ = phi_exact_stars(g)
        assert phi_t == phi_s
        lam, gamma, _, _ = lambda_gamma_exact(g)
        assert lam == g.n - gamma
        assert lam == phi_t + 2
        checked += 1
    # Moebius-Kantor exceeds the default tree guard; enumerate explicitly
    ext = spanning_tree_extrema(mk, max_vertices=16)
    phi_s, _ = phi_exact_stars(mk)
    assert ext.max_full == phi_s
    lam, gamma, _, _ = lambda_gamma_exact(mk)
    assert lam == ext.max_leaves == 16 - gamma == ext.max_full + 2
    checked += 1
    # degree-bound sandwich on everything above plus higher-degree samples
    sandwich = [g for gs in cubic_corpus.values() for g in gs] + named + [mk]
    sandwich += [named_graph("k5"), named_graph("k6"), construct_grid_torus(4, 3),
                 sample_simple_regular(10, 4, np.random.default_rng(41)),
                 sample_simple_regular(12, 4, np.random.default_rng(42)),
                 sample_simple_regular(12, 5, np.random.default_rng(43))]
    for g in sandwich:
        phi, _ = phi_exact_stars(g)
        n, dmax, dmin = g.n, g.max_degree(), g.min_degree()
        assert n / (dmax * (dmax - 1) + 1) <= phi <= (n - 2) / (dmin - 1)
    report(7, True,
           f"tree and star oracles agree on {checked} graphs incl. "
           f"Moebius-Kantor ({ext.tree_count} trees); identities and "
           f"degree-bound sandwich hold on {len(sandwich)} graphs")


def test_criterion_08_algorithm_soundness(cubic_corpus):
    graphs = [g for gs in cubic_corpus.values() for g in gs]
    graphs += [named_graph("petersen"), named_graph("k33"), named_graph("k5"),
               construct_prism_torus(3, 5), construct_grid_torus(4, 3),
               sample_simple_regular(12, 5, np.random.default_rng(17))]
    runs = 0
    for g in graphs:
        phi, _ = phi_exact_stars(g)
        for seed in range(75):
            res = run_on_graph(g, np.random.default_rng(seed))
            assert res.full_degree_count <= phi
            assert res.leaf_count >= (g.r - 2) * res.full_degree_count + 2
            assert len(res.tree) == g.n - 1
            uf = UnionFind(g.n)
            for u, v in res.tree:
                assert g.has_edge(u, v) and uf.union(u, v)
            assert uf.components == 1
            runs += 1
    report(8, runs >= 1000,
           f"{runs} seeded runs on {len(graphs)} graphs: F <= phi_exact, "
           f"valid spanning trees, leaf bound holds")


def test_criterion_09_construction_bounds():
    for m in range(3, 11):
        g = construct_prism_torus(3, m)
        witness = prism_torus_witness(3, m)
        assert len(witness) == m - 2
        assert star_union_is_forest(g, witness)
        exact_phi, _ = phi_exact_stars(g)
        assert exact_phi >= m - 2
    grid = construct_grid_torus(4, 4)
    grid_phi, _ = phi_exact_stars(grid)
    assert grid_phi <= 4
    report(9, True,
           "prism witnesses certify phi >= m-2 for m=3..10; "
           f"grid product on 16 vertices has phi = {grid_phi} <= 4")


def test_criterion_10_numerical_hygiene(ode_r3):
    halved = integrate_two_phase(3, step_size=5e-6)
    d_rho = abs(halved.rho2 - ode_r3.rho2)
    d_f = abs(halved.f_r - ode_r3.f_r)
    # the deprioritized mixture keeps the leaf class pinned at zero
    z_l_max = float(np.max(np.abs(ode_r3.phase2.states[:, 3])))
    # z_M falls at exactly -2(r-1) per unit x in phase 1 (float rounding aside)
    xs = ode_r3.phase1.xs
    z_m = ode_r3.phase1.states[:, 5]
    slopes = np.diff(z_m[:-1]) / np.diff(xs[:-1])
    slope_err = float(np.max(np.abs(slopes + 4.0)))
    ok = d_rho < 1e-6 and d_f < 1e-6 and z_l_max <= 1e-10 and slope_err < 1e-9
    report(10, ok,
           f"step halving moved (rho2, f_r) by ({d_rho:.1e}, {d_f:.1e}) < 1e-6; "
           f"max |z_L| in phase 2 = {z_l_max:.1e} <= event tol; "
           f"z_M slope error {slope_err:.1e}")
