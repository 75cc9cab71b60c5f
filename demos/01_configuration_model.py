"""Configuration-model sampling: pairings, projection, rejection to simple graphs.

Run:  python demos/01_configuration_model.py
"""
import numpy as np

from fdst.graphs import (is_connected, sample_pairing, sample_simple_pairing,
                         sample_simple_regular)

rng = np.random.default_rng(7)

print("=" * 64)
print("A pairing on r*n labeled points, n buckets of size r")
print("=" * 64)
pairing = sample_pairing(n=4, r=3, rng=rng)
r = pairing.r
print(f"n=4, r=3: {pairing.num_points()} points, matches[p] is p's partner:")
print("  ", pairing.matches.tolist())
pairs = [(p // r, q // r) for p, q in enumerate(pairing.matches.tolist()) if p < q]
print("projected pairs (bucket = point // r):")
print("  ", pairs)
loops = sum(u == v for u, v in pairs)
print(f"loops: {loops} | repeated pairs: {len(pairs) - len(set(pairs))}")

print()
print("=" * 64)
print("How often is the projection simple? (n=500, r=3)")
print("=" * 64)
draws = 300
rejections = sum(sample_simple_pairing(500, 3, rng)[1] for _ in range(draws))
print(f"{draws} simple pairings after {rejections} rejections: rate "
      f"{draws / (draws + rejections):.3f} "
      "(the rate tends to exp(-2) ~ 0.135 and stays bounded away from 0)")

print()
print("=" * 64)
print("Rejection sampling a uniform simple 3-regular graph")
print("=" * 64)
# the graph is the projection of the pairing sample_simple_pairing accepts,
# so replaying the same stream through it gives that pairing's rejections
state = rng.bit_generator.state
g = sample_simple_regular(n=10_000, r=3, rng=rng)
rng.bit_generator.state = state
_, rejections = sample_simple_pairing(10_000, 3, rng)
print(f"n={g.n}: accepted after {rejections} rejections; "
      f"connected: {is_connected(g)}")
print("adjacency of vertex 0:", g.adjacency[0])
