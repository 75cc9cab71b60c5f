"""Greedy construction of spanning trees with many full-degree vertices.

One loop serves both modes. It runs against a pairing of the r*n
configuration points (point p belongs to vertex p // r) and reveals the
partners of a vertex's points only when it processes that vertex. It grows
a forest from a random star, prefers processing current leaves (L) over
unseen vertices (Z_r), and finally completes the forest to a spanning tree.
Class bookkeeping follows per-point semantics: a vertex not in the forest
with i unrevealed points is in class Z_i, a forest leaf with r-1 unrevealed
points is in L, and anything hit along the way drops down a class or goes
dormant. A leaf step succeeds when none of its newly revealed partners lies
in the forest, a fresh-vertex step when at most one does.

* lazy mode (`run_lazy`) draws each revealed partner uniformly from the
  unrevealed points, so the pairing stays undisclosed until it is used.
  This is the mode whose scaled trajectories the drift system of
  `fdst.ode` describes.

* graph mode (`run_on_graph`) runs on a concrete connected simple r-regular
  graph with its pairing fixed in advance: point v*r+i is paired with v's
  i-th neighbour in sorted order. There the success rule is the
  pseudocode's "at most one neighbour of the processed vertex already lies
  in the forest".

Failure steps are deliberately cautious: the processed vertex is retired
even when a more careful case analysis could sometimes still make it full
degree, and steps with self-pairs or coincident partners (O(1/n) events)
are declared failures.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvariantViolationError
from .graphs import MultiGraph, Pairing, _pair_uniformly, _simple_edges, is_connected
from .ode import columns
from .unionfind import UnionFind


def _uniforms(rng):
    """Endless stream of uniform floats in [0, 1), drawn from ``rng`` 4096 at a time."""
    while True:
        yield from rng.random(4096).tolist()


class _DensePool:
    """Set over the integers 0..m-1 with O(1) add, discard and uniform random pop.

    ``pos[x]`` is x's index in ``items``, or -1 when x is absent. Removal
    moves the last item into the freed slot.
    """

    __slots__ = ("items", "pos")

    def __init__(self, m, full=True):
        self.items = list(range(m)) if full else []
        self.pos = list(range(m)) if full else [-1] * m

    def __len__(self):
        return len(self.items)

    def add(self, x):
        if self.pos[x] == -1:
            self.pos[x] = len(self.items)
            self.items.append(x)

    def discard(self, x):
        i = self.pos[x]
        if i == -1:
            return
        self.pos[x] = -1
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.pos[last] = i

    def pop_random(self, u):
        """Remove and return items[int(u * len)] for a uniform u in [0, 1)."""
        items = self.items
        i = int(u * len(items))
        x = items[i]
        last = items.pop()
        if i < len(items):
            items[i] = last
            self.pos[last] = i
        self.pos[x] = -1
        return x


@dataclass
class StepOutcome:
    op: int                 # 1 = leaf step, 2 = fresh-vertex step
    processed: int
    success: bool
    partners: list          # newly revealed (vertex, class before the step)


@dataclass
class Trajectory:
    """Scaled per-step samples in the ``fdst.ode.columns(r)`` layout."""

    r: int
    n: int
    sample_stride: int
    samples: np.ndarray

    def header(self):
        return ",".join(columns(self.r))

    def column(self, name):
        try:
            return self.samples[:, columns(self.r).index(name)]
        except ValueError:
            raise InvalidInputError(f"unknown trajectory column {name!r}") from None


@dataclass
class TrajectorySummary:
    rho1_empirical: float | None
    final_full_fraction: float
    final_x: float
    num_samples: int


@dataclass
class SpanningTreeResult:
    n: int
    r: int
    tree: list
    full_degree_count: int
    leaf_count: int
    phase1_full_degree_count: int
    rho1_empirical: float | None
    full_vertices: list
    connected: bool = True
    steps: list | None = None
    pairing: object = None  # lazy mode: the fully revealed Pairing


def _join_forest(n, forest, edges, saturated):
    """Join the components of an acyclic forest with ``edges``, in their order.

    An edge is kept when it joins two components; it may not touch a
    saturated vertex. Returns the sorted tree edges (u < v) and whether
    they span all n vertices.
    """
    uf = UnionFind(n)
    for u, v in forest:
        if not uf.union(u, v):
            raise InvariantViolationError(f"forest has a cycle at ({u}, {v})")
    tree = sorted(forest)
    for u, v in edges:
        if uf.union(u, v):
            if saturated[u] or saturated[v]:
                raise InvariantViolationError(
                    f"completion tried to add ({u}, {v}) at a full-degree vertex")
            tree.append((u, v))
    tree.sort()
    return tree, uf.components == 1


def complete_to_spanning_tree(forest, g):
    """Extend an acyclic forest inside g to a spanning tree of g.

    Scans the graph's edges in lexicographic order and keeps any edge that
    joins two components, so completion is deterministic. No added edge may
    touch a vertex whose full star is already in the forest.
    """
    if not is_connected(g):
        raise InvalidInputError("completion requires a connected graph")
    forest_deg = [0] * g.n
    edges = []
    for u, v in forest:
        if not g.has_edge(u, v):
            raise InvalidInputError(f"forest edge ({u}, {v}) is not a graph edge")
        forest_deg[u] += 1
        forest_deg[v] += 1
        edges.append((u, v) if u < v else (v, u))
    saturated = [forest_deg[v] == g.degree(v) for v in range(g.n)]
    return _join_forest(g.n, edges, g.edges(), saturated)[0]


class _State:
    """Bookkeeping of one run: revealed pairs, vertex classes, pools and forest."""

    def __init__(self, n, r, lazy):
        self.n = n
        self.r = r
        self.partner = [-1] * (n * r)
        self.point_pool = _DensePool(n * r) if lazy else None  # unrevealed points
        self.unrevealed = [r] * n
        self.in_forest = bytearray(n)
        self.full = bytearray(n)
        self.forest = []
        self.count_z = [0] * (r + 1)
        self.count_z[r] = n
        self.full_count = 0
        self.leaf_pool = _DensePool(n, full=False)
        self.fresh_pool = _DensePool(n)

    def unrevealed_total(self):
        if self.point_pool is None:
            return sum(self.unrevealed)
        return len(self.point_pool)

    def sample(self, t, phase):
        n = self.n
        return (t / n, *(c / n for c in self.count_z[1:]), len(self.leaf_pool) / n,
                self.full_count / n, self.unrevealed_total() / n, phase)

    def class_label(self, v):
        if self.full[v]:
            return "full"
        if self.in_forest[v]:
            return "L" if self.unrevealed[v] == self.r - 1 else "dead_leaf"
        return f"Z{self.unrevealed[v]}"

    def audit(self):
        """O(n) recomputation of every incremental counter and pool."""
        n, r = self.n, self.r
        count_z = [0] * (r + 1)
        leaves, fresh = set(), set()
        held = 0  # unrevealed points of dormant forest leaves
        for v in range(n):
            u = self.unrevealed[v]
            if not self.in_forest[v]:
                count_z[u] += 1
                if u == r:
                    fresh.add(v)
            elif not self.full[v]:
                if u == r - 1:
                    leaves.add(v)
                else:
                    held += u
        total = sum(self.unrevealed)
        ok = (count_z == self.count_z
              and leaves == set(self.leaf_pool.items)
              and fresh == set(self.fresh_pool.items)
              and (self.point_pool is None or len(self.point_pool) == total)
              and self.full_count == sum(self.full))
        if not ok:
            raise InvariantViolationError("greedy bookkeeping out of sync")
        decomposed = (sum(i * count_z[i] for i in range(1, r + 1))
                      + (r - 1) * len(leaves) + held)
        if decomposed != total:
            raise InvariantViolationError("unrevealed-point decomposition failed")
        uf = UnionFind(n)
        for u, v in self.forest:
            if not uf.union(u, v):
                raise InvariantViolationError("greedy forest has a cycle")


def _greedy(s, rng, fixed, sample_stride, record_steps, invariant_checks):
    """The greedy loop of both modes, run on the fresh state ``s``.

    Point q's partner is fixed[q] when ``fixed`` is given, else a uniform
    draw from the unrevealed points; every draw reads one `_uniforms` stream.
    Returns (steps or None, trajectory samples, first fresh step or None,
    full count at the end of phase 1).
    """
    n, r = s.n, s.r
    partner, unrevealed, in_forest = s.partner, s.unrevealed, s.in_forest
    full, forest, count_z = s.full, s.forest, s.count_z
    point_pool, leaf_pool, fresh_pool = s.point_pool, s.leaf_pool, s.fresh_pool
    steps = [] if record_steps else None
    samples = [s.sample(0, 1)]
    phase = 1
    first_fresh_step = full_at_phase1_end = None
    t = 0
    draw = _uniforms(rng).__next__
    op, v = 2, int(draw() * n)
    fresh_pool.discard(v)
    while True:
        if op == 2:
            count_z[r] -= 1
        partners = []  # vertices of the partners revealed in this step
        labels = [] if record_steps else None
        self_pair = False
        for q in range(v * r, v * r + r):
            if partner[q] != -1:
                continue
            if fixed is None:
                point_pool.discard(q)
                p = point_pool.pop_random(draw())
            else:
                p = fixed[q]
            partner[q] = p
            partner[p] = q
            w = p // r
            if w == v:
                self_pair = True
                if record_steps:
                    labels.append((v, "self"))
                continue
            if record_steps:
                labels.append((w, s.class_label(w)))
            old = unrevealed[w]
            unrevealed[w] = old - 1
            if in_forest[w]:
                if old == r - 1:
                    leaf_pool.discard(w)
            else:
                count_z[old] -= 1
                count_z[old - 1] += 1
                if old == r:
                    fresh_pool.discard(w)
            partners.append(w)
        unrevealed[v] = 0
        inside = 0
        for w in partners:
            inside += in_forest[w]
        success = (not self_pair and inside <= op - 1
                   and len(set(partners)) == len(partners))
        if success:
            for w in partners:
                forest.append((v, w) if v < w else (w, v))
                if not in_forest[w]:
                    in_forest[w] = 1
                    count_z[unrevealed[w]] -= 1
                    if unrevealed[w] == r - 1:
                        leaf_pool.add(w)
            in_forest[v] = 1
            full[v] = 1
            s.full_count += 1
        elif op == 2:
            count_z[0] += 1  # retired unseen: all points revealed, never joined
        if record_steps:
            steps.append(StepOutcome(op=op, processed=v, success=success,
                                     partners=labels))
        if invariant_checks:
            s.audit()
        if t and t % sample_stride == 0:
            samples.append(s.sample(t, phase))

        if len(leaf_pool):
            op, v = 1, leaf_pool.pop_random(draw())
        elif len(fresh_pool):
            if first_fresh_step is None:
                first_fresh_step = t + 1
                full_at_phase1_end = s.full_count
                phase = 2
            op, v = 2, fresh_pool.pop_random(draw())
        else:
            break
        t += 1
    if t % sample_stride:
        samples.append(s.sample(t, phase))
    return steps, samples, first_fresh_step, full_at_phase1_end


def _result(s, tree, connected, steps, first_fresh_step, full_at_phase1_end):
    n, r = s.n, s.r
    deg = MultiGraph(n=n, edges=tree).degrees()
    full_vertices = [v for v in range(n) if s.full[v]]
    for v in full_vertices:
        if deg[v] != r:
            raise InvariantViolationError(
                f"full-degree vertex {v} has tree degree {deg[v]}")
    return SpanningTreeResult(
        n=n, r=r, tree=tree,
        full_degree_count=s.full_count,
        leaf_count=deg.count(1),
        phase1_full_degree_count=(full_at_phase1_end
                                  if full_at_phase1_end is not None else s.full_count),
        rho1_empirical=(first_fresh_step / n if first_fresh_step is not None else None),
        full_vertices=full_vertices,
        connected=connected,
        steps=steps,
    )


def run_on_graph(g, rng, record_steps=False):
    """Run the algorithm on a concrete connected r-regular graph."""
    r = g.r
    if r < 3:
        raise InvalidInputError(f"need r >= 3, got r={r}")
    n = g.n
    # point v*r+i pairs with point w*r+j of w = adj[v][i], where j is v's
    # index in w's sorted list; scanning v upwards meets w's neighbours in
    # that same order, so j counts the earlier meetings of w
    met = [0] * n
    fixed = []
    for nbrs in g.adjacency:
        for w in nbrs:
            fixed.append(w * r + met[w])
            met[w] += 1
    s = _State(n, r, lazy=False)
    # graph mode returns no trajectory; a stride of n keeps only the end samples
    steps, _, first_fresh_step, full_at_phase1_end = _greedy(
        s, rng, fixed, n, record_steps, invariant_checks=False)
    tree, spans = _join_forest(n, s.forest, g.edges(), s.full)
    if not spans:
        raise InvalidInputError("graph mode requires a connected input graph")
    return _result(s, tree, True, steps, first_fresh_step, full_at_phase1_end)


def run_lazy(n, r, rng, sample_stride=None, record_steps=False,
             invariant_checks=False):
    """Run the algorithm against a lazily revealed uniform pairing.

    Returns (SpanningTreeResult, Trajectory). The result's tree is a
    spanning forest of the projected multigraph (a spanning tree when the
    multigraph is connected); the trajectory samples the scaled class sizes
    every ``sample_stride`` steps (default: ceil(n/1000)).
    """
    if r < 3:
        raise InvalidInputError(f"need r >= 3, got r={r}")
    if (n * r) % 2:
        raise InvalidInputError(f"r*n must be even, got n={n}, r={r}")
    if sample_stride is None:
        sample_stride = max(1, -(-n // 1000))
    s = _State(n, r, lazy=True)
    steps, samples, first_fresh_step, full_at_phase1_end = _greedy(
        s, rng, None, sample_stride, record_steps, invariant_checks)
    matches = np.asarray(s.partner, dtype=np.int64)
    _pair_uniformly(matches, np.flatnonzero(matches == -1), rng)
    pairing = Pairing(n=n, r=r, matches=matches)
    pts = np.flatnonzero(np.arange(n * r) < matches)  # the lower point of each pair
    lo, hi = _simple_edges(n, pts // r, matches[pts] // r)
    tree, connected = _join_forest(n, s.forest, zip(lo, hi), s.full)
    result = _result(s, tree, connected, steps, first_fresh_step, full_at_phase1_end)
    result.pairing = pairing
    trajectory = Trajectory(r=r, n=n, sample_stride=sample_stride,
                            samples=np.asarray(samples))
    return result, trajectory


def trajectory_stats(traj):
    """Summary of one trajectory: phase-1 end, final full-degree fraction."""
    if len(traj.samples) == 0:
        raise InvalidInputError("empty trajectory")
    xs = traj.column("x")
    phases = traj.column("phase")
    z_f = traj.column("zF")
    phase2 = np.nonzero(phases == 2)[0]
    rho1 = float(xs[phase2[0]]) if len(phase2) else None
    return TrajectorySummary(
        rho1_empirical=rho1,
        final_full_fraction=float(z_f[-1]),
        final_x=float(xs[-1]),
        num_samples=len(xs),
    )
