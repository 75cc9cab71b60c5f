"""Named small graphs: the graphs that ``fdst exact --graph`` serves, and their builders."""
from __future__ import annotations

from .errors import InvalidInputError
from .graphs import graph_from_edges


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

