"""Connected simple r-regular test graphs for the exact workload.

The benchmark generates these itself, so that a change to the sampler in
``fdst.graphs`` cannot change the inputs of the exact oracles.
"""
from __future__ import annotations

import numpy as np


def random_regular_graph(n, r, rng, max_attempts=10_000):
    """Sorted edge list of a uniform connected simple r-regular graph on n vertices.

    Pairs a uniform permutation of the r*n configuration points two by two,
    which is a uniform pairing, and rejects loops, repeated edges and
    disconnected graphs.
    """
    if (n * r) % 2 or not 3 <= r < n:
        raise ValueError(f"no simple r-regular graph to sample for n={n}, r={r}")
    for _ in range(max_attempts):
        ends = rng.permutation(n * r) // r
        lo = np.minimum(ends[0::2], ends[1::2])
        hi = np.maximum(ends[0::2], ends[1::2])
        if np.any(lo == hi):
            continue
        keys = np.unique(lo * n + hi)
        if len(keys) < len(lo):
            continue
        edges = [divmod(k, n) for k in keys.tolist()]
        if is_connected(n, edges):
            return edges
    raise RuntimeError(f"no connected simple graph in {max_attempts} attempts")


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_connected(n, edges, vertices=None):
    """Whether the subgraph induced on ``vertices`` (default: all) is connected."""
    keep = set(range(n)) if vertices is None else set(vertices)
    if not keep:
        return False
    adj = adjacency(n, edges)
    start = next(iter(keep))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u] & keep:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == keep


def write_graph_file(path, n, r, edges):
    """The graph file format ``fdst exact --graph-file`` reads: "n r", then "u v" lines."""
    with open(path, "w") as fh:
        fh.write(f"{n} {r}\n")
        fh.writelines(f"{u} {v}\n" for u, v in edges)
