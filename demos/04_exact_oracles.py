"""Exact small-graph oracles and the extremal product constructions.

Run:  python demos/04_exact_oracles.py
"""
from fdst.catalog import connected_cubic_graphs, named_graph
from fdst.exact import (check_propositions, construct_grid_torus,
                        construct_prism_torus, exact_result,
                        phi_exact_stars, phi_exact_trees, prism_torus_witness,
                        star_union_is_forest)

print("=" * 64)
print("phi / lambda / gamma_C on named graphs")
print("=" * 64)
print(f"{'graph':>16} {'n':>4} {'phi':>4} {'lambda':>7} {'gamma_C':>8} {'trees':>8}")
for name in ("k4", "k33", "prism", "cube", "petersen"):
    g = named_graph(name)
    res = exact_result(g)
    print(f"{name:>16} {g.n:>4} {res.phi:>4} {res.lam:>7} {res.gamma_c:>8} "
          f"{res.tree_count:>8}")

print()
print("=" * 64)
print("Both phi oracles on every connected cubic graph with n <= 8")
print("=" * 64)
for n in (4, 6, 8):
    for i, g in enumerate(connected_cubic_graphs(n)):
        pt, _ = phi_exact_trees(g)
        ps, _ = phi_exact_stars(g)
        res = exact_result(g)
        ok = check_propositions(g, res)["all_pass"]
        print(f"n={n} #{i}: phi(trees)={pt} phi(stars)={ps} "
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
