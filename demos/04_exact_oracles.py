"""Exact small-graph oracles and the extremal product constructions.

The tree DP counts and scores every spanning tree and returns only the count
and the two maxima; the star and CDS searches supply the witnesses, and
``exact_result`` checks their phi and lambda against the DP's maxima.

Run:  python demos/04_exact_oracles.py
"""
import numpy as np

from fdst.catalog import named_graph
from fdst.exact import (check_propositions, construct_grid_torus,
                        construct_prism_torus, exact_result, phi_exact_stars,
                        prism_torus_witness, spanning_tree_extrema,
                        star_union_is_forest)
from fdst.graphs import is_connected, sample_simple_regular

CUBIC_NAMES = ("k4", "k33", "prism", "cube", "petersen")

print("=" * 64)
print("phi / lambda / gamma_C on named graphs")
print("=" * 64)
print(f"{'graph':>16} {'n':>4} {'phi':>4} {'lambda':>7} {'gamma_C':>8} {'trees':>8}")
for name in CUBIC_NAMES:
    g = named_graph(name)
    res = exact_result(g)
    print(f"{name:>16} {g.n:>4} {res.phi:>4} {res.lam:>7} {res.gamma_c:>8} "
          f"{res.tree_count:>8}")

print()
print("=" * 64)
print("Both phi oracles on the named and on seeded random cubic graphs")
print("=" * 64)
rng = np.random.default_rng(4)
cubic = [(name, named_graph(name)) for name in CUBIC_NAMES]
for n in (8, 10, 12):
    g = sample_simple_regular(n, 3, rng)
    while not is_connected(g):
        g = sample_simple_regular(n, 3, rng)
    cubic.append((f"random n={n}", g))
for label, g in cubic:
    pt = spanning_tree_extrema(g).max_full
    ps, _ = phi_exact_stars(g)
    res = exact_result(g)
    ok = check_propositions(g, res)["all_pass"]
    print(f"{label:>13}: phi(trees)={pt} phi(stars)={ps} "
          f"lambda={res.lam} gamma_C={res.gamma_c} propositions={'ok' if ok else 'FAIL'}")

print()
print("=" * 64)
print("Product constructions")
print("=" * 64)
for m in (5, 8, 10):
    g = construct_prism_torus(3, m)
    witness = prism_torus_witness(3, m)
    phi, _ = phi_exact_stars(g)
    print(f"K_2 x C_{m:<2}: n={g.n:>2}  witness of size {len(witness)} is a forest: "
          f"{star_union_is_forest(g, witness)}  exact phi = {phi}")
grid = construct_grid_torus(4, 4)
phi, _ = phi_exact_stars(grid)
print(f"(K_2 x K_2) x C_4: n={grid.n}, 4-regular, exact phi = {phi} "
      "(at most one full vertex per 4-cycle layer)")
