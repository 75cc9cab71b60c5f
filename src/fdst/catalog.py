"""Named small graphs and the exhaustive connected-cubic corpus used by the oracles."""
from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import InvalidInputError
from .graphs import graph_from_edges, is_connected


def complete_graph(n):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return graph_from_edges(n, edges, r=n - 1)


def cycle_graph(n):
    if n < 3:
        raise InvalidInputError("cycle needs n >= 3")
    edges = [(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)]
    return graph_from_edges(n, sorted(set(edges)), r=2)


def complete_bipartite(a, b):
    edges = [(u, a + v) for u in range(a) for v in range(b)]
    return graph_from_edges(a + b, edges, r=a if a == b else None)


def generalized_petersen(n, k):
    """Outer cycle 0..n-1, spokes to n..2n-1, inner star-polygon with skip k."""
    edges = []
    for i in range(n):
        edges.append(tuple(sorted((i, (i + 1) % n))))
        edges.append((i, n + i))
        edges.append(tuple(sorted((n + i, n + (i + k) % n))))
    return graph_from_edges(2 * n, sorted(set(edges)), r=3)


def petersen_graph():
    return generalized_petersen(5, 2)


def moebius_kantor_graph():
    return generalized_petersen(8, 3)


def prism_graph(m):
    """K_2 x C_m: two m-cycles joined by a perfect matching (3-regular, n=2m)."""
    if m < 3:
        raise InvalidInputError("prism needs m >= 3")
    edges = []
    for i in range(m):
        j = (i + 1) % m
        edges.append(tuple(sorted((i, j))))
        edges.append(tuple(sorted((m + i, m + j))))
        edges.append((i, m + i))
    return graph_from_edges(2 * m, sorted(set(edges)), r=3)


def cube_graph():
    return prism_graph(4)


NAMED_GRAPHS = {
    "k4": lambda: complete_graph(4),
    "k5": lambda: complete_graph(5),
    "k6": lambda: complete_graph(6),
    "k33": lambda: complete_bipartite(3, 3),
    "prism": lambda: prism_graph(3),
    "cube": cube_graph,
    "petersen": petersen_graph,
    "moebius-kantor": moebius_kantor_graph,
    "c6": lambda: cycle_graph(6),
}


def named_graph(name):
    key = name.lower().replace("_", "-")
    if key not in NAMED_GRAPHS:
        raise InvalidInputError(
            f"unknown graph {name!r}; known: {', '.join(sorted(NAMED_GRAPHS))}")
    return NAMED_GRAPHS[key]()


def _labeled_regular_graphs(n, r, fix_first_neighborhood=True):
    """All labeled r-regular simple graphs on [n], as frozensets of edges.

    Completes the lowest-indexed deficient vertex at each step, so each
    labeled graph is produced exactly once. With fix_first_neighborhood the
    neighbors of vertex 0 are pinned to 1..r, which loses nothing up to
    isomorphism and shrinks the output by a factor of C(n-1, r).
    """
    out = []
    deg = [0] * n
    adj = [set() for _ in range(n)]
    edges = []

    def rec():
        u = next((v for v in range(n) if deg[v] < r), None)
        if u is None:
            out.append(frozenset(edges))
            return
        need = r - deg[u]
        cands = [w for w in range(u + 1, n) if deg[w] < r and w not in adj[u]]
        if len(cands) < need:
            return
        for chosen in combinations(cands, need):
            for w in chosen:
                deg[u] += 1
                deg[w] += 1
                adj[u].add(w)
                adj[w].add(u)
                edges.append((u, w))
            rec()
            for w in chosen:
                deg[u] -= 1
                deg[w] -= 1
                adj[u].remove(w)
                adj[w].remove(u)
                edges.pop()

    if fix_first_neighborhood:
        for w in range(1, r + 1):
            deg[0] += 1
            deg[w] += 1
            adj[0].add(w)
            adj[w].add(0)
            edges.append((0, w))
    rec()
    return out


def _adjacency_sets(g):
    return [frozenset(nbrs) for nbrs in g.adjacency]


def are_isomorphic(g1, g2):
    """Backtracking isomorphism test; fine for the small graphs handled here."""
    if g1.n != g2.n or g1.num_edges() != g2.num_edges():
        return False
    if sorted(map(len, g1.adjacency)) != sorted(map(len, g2.adjacency)):
        return False
    n = g1.n
    a1 = _adjacency_sets(g1)
    a2 = _adjacency_sets(g2)
    mapping = [-1] * n
    used = [False] * n

    def extend(u):
        if u == n:
            return True
        for t in range(n):
            if used[t] or len(a2[t]) != len(a1[u]):
                continue
            ok = True
            for w in a1[u]:
                mw = mapping[w]
                if mw != -1 and mw not in a2[t]:
                    ok = False
                    break
            if not ok:
                continue
            # mapped non-neighbors must stay non-neighbors
            for w in range(u):
                if w not in a1[u] and mapping[w] in a2[t]:
                    ok = False
                    break
            if not ok:
                continue
            mapping[u] = t
            used[t] = True
            if extend(u + 1):
                return True
            mapping[u] = -1
            used[t] = False
        return False

    return extend(0)


def _spectrum_key(g):
    a = np.zeros((g.n, g.n))
    for u, nbrs in enumerate(g.adjacency):
        for v in nbrs:
            a[u, v] = 1.0
    eig = np.sort(np.linalg.eigvalsh(a))
    return tuple(np.round(eig, 6).tolist())


def connected_cubic_graphs(n):
    """All connected 3-regular graphs on n vertices, one per isomorphism class."""
    if n % 2 or n < 4:
        raise InvalidInputError("cubic graphs need even n >= 4")
    reps = []
    buckets = {}
    for edges in _labeled_regular_graphs(n, 3):
        g = graph_from_edges(n, sorted(edges), r=3)
        if not is_connected(g):
            continue
        key = _spectrum_key(g)
        bucket = buckets.setdefault(key, [])
        if any(are_isomorphic(g, h) for h in bucket):
            continue
        bucket.append(g)
        reps.append(g)
    return reps
