"""Configuration-model sampling and simple regular-graph utilities.

Vertices are 0-indexed everywhere in this package; the r*n configuration
points of an n-vertex pairing are 0..r*n-1 and point p belongs to bucket
p // r.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AttemptsExhaustedError, InvalidInputError

# pairings sample_simple_pairing rejects before it gives up
MAX_ATTEMPTS = 20_000


def index_dtype(size):
    """The dtype of indices 0..size-1: int32 when size < 2**31, else int64."""
    return np.int32 if size < 2**31 else np.int64


@dataclass
class Pairing:
    """A perfect matching on r*n labeled configuration points.

    ``matches`` is a fixed-point-free involution: matches[p] is the point
    paired with p, and matches[matches[p]] == p for every p. Its dtype is
    ``index_dtype(r*n)``: int32 when r*n < 2**31, else int64.
    """

    n: int
    r: int
    matches: np.ndarray

    def num_points(self):
        return self.n * self.r

    def vertex_pairs(self):
        """Vertices u[i], v[i] of the matched pairs (p, q), p < q, in increasing order of p.

        Both arrays have the dtype of ``matches``.
        """
        matches = self.matches
        v = matches[np.arange(len(matches), dtype=matches.dtype) < matches]
        u = matches[v]
        u //= self.r
        v //= self.r
        return u, v


@dataclass
class SimpleGraph:
    """Simple undirected graph given by per-vertex sorted neighbor lists."""

    n: int
    adjacency: list

    @property
    def r(self):
        """The common degree, or None when the graph is irregular or empty."""
        degrees = {len(a) for a in self.adjacency}
        return degrees.pop() if len(degrees) == 1 else None

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

    def validate(self):
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


def graph_from_edges(n, edges, r=None):
    """Build and validate a SimpleGraph from an edge list; given r, every degree must be r."""
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidInputError(f"edge ({u}, {v}) out of range 0..{n - 1}")
        adjacency[u].append(v)
        adjacency[v].append(u)
    for a in adjacency:
        a.sort()
    g = SimpleGraph(n=n, adjacency=adjacency)
    g.validate()
    if r is not None:
        for u, nbrs in enumerate(adjacency):
            if len(nbrs) != r:
                raise InvalidInputError(f"vertex {u} has degree {len(nbrs)} != {r}")
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
    # a uniform permutation read off in consecutive slots is a uniform matching;
    # the int64 draw lives only until its copy in index_dtype(m) (shuffling an
    # int32 arange gives the same order, but numpy swaps 8-byte items faster)
    return _pairing(n, r, rng.permutation(m).astype(index_dtype(m)))


def _pairing(n, r, perm):
    """The pairing of ``perm[2i]`` with ``perm[2i+1]``, in the dtype of the permutation."""
    matches = np.empty_like(perm)
    matches[perm[0::2]] = perm[1::2]
    matches[perm[1::2]] = perm[0::2]
    return Pairing(n=n, r=r, matches=matches)


def sample_simple_pairing(n, r, rng):
    """Uniform pairing whose projection is a simple graph, by rejection.

    Draws ``sample_pairing``'s pairings until one projects to a simple
    graph and returns (that pairing, the number rejected before it). The
    accepted pairing's projection is a uniform simple r-regular graph, and
    given that graph its points are labelled uniformly at random (Bollobás,
    Europ. J. Combin. 1, 1980). Connectivity is *not* enforced here; callers
    that need a connected graph must check (keeps the sampler exactly
    uniform over simple r-regular graphs). Raises AttemptsExhaustedError
    after MAX_ATTEMPTS rejections. The acceptance rate decays like
    exp(-(r*r-1)/4) and is worse at small n, so the attempt budget is
    generous; r above ~6 is impractical.
    """
    if not 3 <= r <= n - 1:
        raise InvalidInputError(f"need 3 <= r <= n-1, got n={n}, r={r}")
    if (n * r) % 2:
        raise InvalidInputError(f"r*n must be even, got n={n}, r={r}")
    for attempt in range(MAX_ATTEMPTS):
        # the pairing of sample_pairing, checked on the buckets of its pairs
        perm = rng.permutation(n * r)
        u, v = perm[0::2] // r, perm[1::2] // r
        if np.any(u == v):
            continue  # a loop
        keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))  # int64, as perm is
        if np.any(keys[1:] == keys[:-1]):
            continue  # a repeated edge
        return _pairing(n, r, perm.astype(index_dtype(n * r))), attempt
    raise AttemptsExhaustedError(
        f"no simple graph in {MAX_ATTEMPTS} attempts (n={n}, r={r})")


def sample_simple_regular(n, r, rng):
    """Uniform simple r-regular graph: the projection of ``sample_simple_pairing``."""
    pairing, _ = sample_simple_pairing(n, r, rng)
    u, v = pairing.vertex_pairs()
    return graph_from_edges(n, zip(u.tolist(), v.tolist()), r=r)


def is_connected(g):
    """Reachability of every vertex from vertex 0; the empty graph is not connected."""
    if g.n == 0:
        return False
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
    r = g.r
    if r is None:
        raise InvalidInputError("graph file format requires a regular graph")
    with open(path, "w") as fh:
        fh.write(f"{g.n} {r}\n")
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
    return graph_from_edges(n, edges, r=r)
