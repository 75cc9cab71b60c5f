"""Configuration-model sampling and simple regular-graph utilities.

Vertices are 0-indexed everywhere in this package; the r*n configuration
points of an n-vertex pairing are 0..r*n-1 and point p belongs to bucket
p // r.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AttemptsExhaustedError, InvalidInputError


@dataclass
class Pairing:
    """A perfect matching on r*n labeled configuration points.

    ``matches`` is a fixed-point-free involution: matches[p] is the point
    paired with p, and matches[matches[p]] == p for every p.
    """

    n: int
    r: int
    matches: np.ndarray

    def num_points(self):
        return self.n * self.r

    def validate(self):
        m = self.num_points()
        pts = np.arange(m)
        if len(self.matches) != m:
            raise InvalidInputError("matches has wrong length")
        if np.any(self.matches == pts):
            raise InvalidInputError("pairing has a fixed point")
        if not np.array_equal(self.matches[self.matches], pts):
            raise InvalidInputError("matches is not an involution")

    def _pair_points(self):
        """Arrays p, q of the matched pairs (p, q), p < q, in increasing order of p."""
        p = np.flatnonzero(np.arange(self.num_points()) < self.matches)
        return p, self.matches[p]


@dataclass
class SimpleGraph:
    """Simple undirected graph given by per-vertex sorted neighbor lists."""

    n: int
    adjacency: list

    def degree(self, v):
        return len(self.adjacency[v])

    def max_degree(self):
        return max(len(a) for a in self.adjacency)

    def min_degree(self):
        return min(len(a) for a in self.adjacency)

    def edges(self):
        """All edges as (u, v) with u < v, lexicographically sorted."""
        out = []
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    out.append((u, v))
        return out

    def has_edge(self, u, v):
        return v in self.adjacency[u]

    def validate_simple(self):
        for u, nbrs in enumerate(self.adjacency):
            if u in nbrs:
                raise InvalidInputError(f"loop at vertex {u}")
            if len(set(nbrs)) != len(nbrs):
                raise InvalidInputError(f"repeated neighbor at vertex {u}")
            for v in nbrs:
                if not 0 <= v < self.n:
                    raise InvalidInputError(f"neighbor {v} out of range")
                if u not in self.adjacency[v]:
                    raise InvalidInputError(f"asymmetric edge ({u}, {v})")


@dataclass
class RegularGraph(SimpleGraph):
    """Simple r-regular graph. ``rejections`` records sampler rejections, if any."""

    r: int = 0
    rejections: int = 0

    def validate(self):
        self.validate_simple()
        for u, nbrs in enumerate(self.adjacency):
            if len(nbrs) != self.r:
                raise InvalidInputError(f"vertex {u} has degree {len(nbrs)} != {self.r}")


def graph_from_edges(n, edges, r=None):
    """Build a SimpleGraph (or RegularGraph when r is given) from an edge list."""
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    for a in adjacency:
        a.sort()
    if r is None:
        g = SimpleGraph(n=n, adjacency=adjacency)
        g.validate_simple()
    else:
        g = RegularGraph(n=n, adjacency=adjacency, r=r)
        g.validate()
    return g


def sample_pairing(n, r, rng):
    """Uniform perfect matching on the r*n configuration points."""
    if r < 2:
        raise InvalidInputError(f"need r >= 2, got r={r}")
    if n < 1:
        raise InvalidInputError(f"need n >= 1, got n={n}")
    m = n * r
    if m % 2:
        raise InvalidInputError(f"r*n must be even, got n={n}, r={r}")
    # a uniform permutation read off in consecutive slots is a uniform matching
    perm = rng.permutation(m)
    matches = np.empty(m, dtype=np.int64)
    matches[perm[0::2]] = perm[1::2]
    matches[perm[1::2]] = perm[0::2]
    return Pairing(n=n, r=r, matches=matches)


def sample_simple_pairing(n, r, rng, max_attempts=20_000):
    """Uniform pairing whose projection is a simple graph, by rejection.

    Draws ``sample_pairing``'s pairings until one projects to a simple
    graph and returns (that pairing, the number rejected before it). The
    accepted pairing's projection is a uniform simple r-regular graph, and
    given that graph its points are labelled uniformly at random (Bollobás,
    Europ. J. Combin. 1, 1980). Connectivity is *not* enforced here; callers
    that need a connected graph must check (keeps the sampler exactly
    uniform over simple r-regular graphs). Raises AttemptsExhaustedError
    after max_attempts rejections. The acceptance rate decays like
    exp(-(r*r-1)/4) and is worse at small n, so the default attempt budget
    is generous; r above ~6 is impractical.
    """
    if not 3 <= r <= n - 1:
        raise InvalidInputError(f"need 3 <= r <= n-1, got n={n}, r={r}")
    if (n * r) % 2:
        raise InvalidInputError(f"r*n must be even, got n={n}, r={r}")
    for attempt in range(max_attempts):
        # the pairing of sample_pairing, checked on the buckets of its pairs
        perm = rng.permutation(n * r)
        a, b = perm[0::2], perm[1::2]
        u, v = a // r, b // r
        if np.any(u == v):
            continue  # a loop
        keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
        if np.any(keys[1:] == keys[:-1]):
            continue  # a repeated edge
        matches = np.empty(n * r, dtype=np.int64)
        matches[a] = b
        matches[b] = a
        return Pairing(n=n, r=r, matches=matches), attempt
    raise AttemptsExhaustedError(
        f"no simple graph in {max_attempts} attempts (n={n}, r={r})")


def sample_simple_regular(n, r, rng, max_attempts=20_000):
    """Uniform simple r-regular graph: the projection of ``sample_simple_pairing``.

    ``rejections`` on the result counts the pairings rejected before it.
    """
    pairing, rejections = sample_simple_pairing(n, r, rng, max_attempts)
    p, q = pairing._pair_points()
    g = graph_from_edges(n, zip((p // r).tolist(), (q // r).tolist()), r=r)
    g.rejections = rejections
    return g


def is_connected(g):
    """Reachability of every vertex from vertex 0."""
    if g.n == 0:
        return True
    seen = bytearray(g.n)
    seen[0] = 1
    stack = [0]
    count = 1
    adj = g.adjacency
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = 1
                count += 1
                stack.append(w)
    return count == g.n


def write_graph(g, path):
    """Plain-text graph file: first line "n r", then one "u v" line per edge (u < v).

    The format carries a single degree, so only regular graphs roundtrip.
    """
    degrees = {g.degree(v) for v in range(g.n)}
    if len(degrees) != 1:
        raise InvalidInputError("graph file format requires a regular graph")
    with open(path, "w") as fh:
        fh.write(f"{g.n} {degrees.pop()}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def _int_pair(path, line, form):
    """The two integers of ``line``, a line of the file ``path`` in the form ``form``."""
    parts = line.split()
    try:
        if len(parts) == 2:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise InvalidInputError(f"{path}: expected {form}, got {line!r}")


def read_graph(path):
    """Read and validate the graph file format written by write_graph."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read graph file {path}: {exc}") from exc
    if not lines:
        raise InvalidInputError(f"{path}: empty graph file")
    n, r = _int_pair(path, lines[0], "the header 'n r'")
    if n < 1:
        raise InvalidInputError(f"{path}: need n >= 1, got n={n}")
    edges = []
    for ln in lines[1:]:
        u, v = _int_pair(path, ln, "an edge 'u v'")
        if not (0 <= u < v < n):
            raise InvalidInputError(f"{path}: edge ({u}, {v}) must satisfy 0 <= u < v < n")
        edges.append((u, v))
    # checked before graph_from_edges, whose allocation grows with the header's n
    if (n * r) % 2:
        raise InvalidInputError(f"{path}: n*r must be even, got n={n}, r={r}")
    if len(edges) != n * r // 2:
        raise InvalidInputError(f"{path}: expected n*r/2 = {n * r // 2} edges, got {len(edges)}")
    if len(set(edges)) != len(edges):
        raise InvalidInputError(f"{path}: repeated edge")
    return graph_from_edges(n, edges, r=r)
