"""Greedy construction of spanning trees with many full-degree vertices.

One loop serves both modes. It runs against a pairing of the r*n
configuration points (point p belongs to vertex p // r), fixed before the
run, and reveals the partners of a vertex's points only when it processes
that vertex. It grows a forest from a random star, prefers processing
current leaves (L) over unseen vertices (Z_r), and finally completes the
forest to a spanning tree. Completion joins the greedy's own components:
each vertex that joins the forest records its parent and takes its
parent's component label, a fresh vertex with no forest partner starts a
component, and Kruskal's rule (Kruskal, Proc. AMS 7, 1956) then runs over
the pairing's pairs between components alone, smallest first. A result's
tree is the (m, 2) int64 array of its edge rows (u, v), u < v, in
lexicographic order, decoded from completion's sorted keys u*n + v.
Class bookkeeping follows per-point semantics: a vertex not in the forest
with i unrevealed points is in class Z_i, a forest leaf with r-1 unrevealed
points is in L, and anything hit along the way drops down a class or goes
dormant. A leaf step succeeds when none of its newly revealed partners lies
in the forest, a fresh-vertex step when at most one does.

* lazy mode (`run_lazy`) runs on a uniform pairing drawn before the run.
  By deferred decisions that is the lazily revealed configuration model
  (Wormald, "Models of random regular graphs", Surveys in Combinatorics
  1999, section 2) whose scaled trajectories `fdst.ode` describes.

* graph mode (`run_on_pairing`) runs on a pairing whose projection is a
  simple r-regular graph, such as the one `fdst.graphs.sample_simple_pairing`
  accepts. There the success rule is the pseudocode's "at most one
  neighbour of the processed vertex already lies in the forest". The greedy
  picks uniformly from its pools, so its output law does not depend on how
  the points within a vertex are labelled. `run_on_graph` runs it on a
  concrete connected simple r-regular graph, with point v*r+i paired with
  v's i-th neighbour in sorted order.

Failure steps are deliberately cautious: the processed vertex is retired
even when a more careful case analysis could sometimes still make it full
degree, and steps with self-pairs or coincident partners (O(1/n) events)
are declared failures.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvariantViolationError
from .graphs import Pairing, sample_pairing
from .ode import columns
from .unionfind import UnionFind


def _uniforms(rng):
    """Endless stream of uniform floats in [0, 1), drawn from ``rng`` 4096 at a time."""
    while True:
        yield from rng.random(4096).tolist()


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

    def column(self, name):
        try:
            return self.samples[:, columns(self.r).index(name)]
        except ValueError:
            raise InvalidInputError(f"unknown trajectory column {name!r}") from None


@dataclass
class SpanningTreeResult:
    """One greedy run.

    ``tree`` is an (m, 2) int64 array of edge rows (u, v), u < v, strictly
    increasing: m = n - 1 when ``connected``, else n minus the component
    count. ``full_vertices`` is the sorted int64 array of the vertices whose
    full star is in the tree.
    """

    n: int
    r: int
    tree: np.ndarray
    full_degree_count: int
    leaf_count: int
    phase1_full_degree_count: int
    rho1_empirical: float | None
    full_vertices: np.ndarray
    connected: bool = True
    steps: list | None = None
    pairing: object = None  # lazy mode: the uniform Pairing drawn before the run


def _int64s(values):
    """The integers ``values`` as a typed array('q'), copied from their int64 buffer."""
    out = array("q")
    out.frombytes(memoryview(np.ascontiguousarray(values, dtype=np.int64)).cast("B"))
    return out


def _complete(n, labels, forest_u, forest_v, u, v, saturated):
    """Join the components of a forest with the vertex pairs (u[i], v[i]).

    ``labels[x]`` in 0..n-1 names the forest component of x, and the forest's
    edges are (forest_u[i], forest_v[i]). Every forest edge must lie within one
    label, and there must be n - (forest edges) labels: when the labels are the
    forest's components, that count holds exactly when the forest is acyclic.
    A pair within one label (a loop, or an edge inside a component) is
    dropped. Kruskal's rule scans the rest by their keys min*n + max, smallest
    first, with a union-find over the labels, and keeps a pair when it joins
    two components, so a repeated pair is kept at most once; a kept edge may
    not touch a saturated vertex. Returns the sorted keys u*n + v
    (u < v) of the tree's edges and whether they span all n vertices.
    """
    labels = np.asarray(labels)
    present = np.bincount(labels, minlength=n) > 0
    components = int(np.count_nonzero(present))
    if components != n - len(forest_u):
        raise InvariantViolationError(
            f"{components} forest components, but n - edges = {n - len(forest_u)}")
    if np.any(labels[forest_u] != labels[forest_v]):
        raise InvariantViolationError("a forest edge joins two components")
    cross = labels[u] != labels[v]
    u, v = u[cross], v[cross]
    cross_keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    lo, hi = np.divmod(cross_keys, n)
    dense = np.cumsum(present) - 1  # label -> component index 0..components-1
    union = UnionFind(components).union
    kept = [i for i, (a, b) in enumerate(zip(dense[labels[lo]].tolist(),
                                             dense[labels[hi]].tolist()))
            if union(a, b)]
    lo, hi = lo[kept], hi[kept]
    bad = np.flatnonzero(saturated[lo] | saturated[hi])
    if len(bad):
        raise InvariantViolationError(
            f"completion tried to add ({lo[bad[0]]}, {hi[bad[0]]}) at a full-degree vertex")
    keys = np.concatenate((np.minimum(forest_u, forest_v) * n + np.maximum(forest_u, forest_v),
                           cross_keys[kept]))
    keys.sort()
    return keys, components - len(kept) == 1


class _State:
    """Bookkeeping of one run: revealed points, vertex classes, pools and forest.

    The leaf pool ``leaves`` holds the forest leaves with r-1 unrevealed
    points, the fresh pool ``fresh`` the unseen vertices (class Z_r) not yet
    processed. No vertex is in both, so they share ``pos``: pos[x] is x's
    index in its pool. The forest is ``parent``: a root is its own parent and
    any other forest vertex has the vertex whose step joined it. ``labels[v]``
    is the root of v's component; a vertex outside the forest is a root.
    """

    def __init__(self, n, r):
        self.n = n
        self.r = r
        self.revealed = bytearray(n * r)
        self.unrevealed_points = n * r
        self.unrevealed = [r] * n
        self.in_forest = bytearray(n)
        self.full = bytearray(n)
        self.parent = _int64s(np.arange(n))
        self.labels = _int64s(np.arange(n))
        self.count_z = [0] * (r + 1)
        self.count_z[r] = n
        self.full_count = 0
        self.leaves = []
        self.fresh = list(range(n))
        self.pos = _int64s(np.arange(n))

    def sample(self, t, phase):
        n = self.n
        return (t / n, *(c / n for c in self.count_z[1:]), len(self.leaves) / n,
                self.full_count / n, self.unrevealed_points / n, phase)

    def class_label(self, v):
        if self.full[v]:
            return "full"
        if self.in_forest[v]:
            return "L" if self.unrevealed[v] == self.r - 1 else "dead_leaf"
        return f"Z{self.unrevealed[v]}"

    def forest_edges(self):
        """Arrays u, v of the forest's edges (u[i], parent u[i])."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        u = np.flatnonzero(parent != np.arange(self.n))
        return u, parent[u]

    def audit(self):
        """O(n) recomputation of every incremental counter, pool and label."""
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
              and leaves == set(self.leaves)
              and fresh == set(self.fresh)
              and all(self.pos[x] == i for pool in (self.leaves, self.fresh)
                      for i, x in enumerate(pool))
              and self.unrevealed_points == total == self.revealed.count(0)
              and self.full_count == sum(self.full))
        if not ok:
            raise InvariantViolationError("greedy bookkeeping out of sync")
        decomposed = (sum(i * count_z[i] for i in range(1, r + 1))
                      + (r - 1) * len(leaves) + held)
        if decomposed != total:
            raise InvariantViolationError("unrevealed-point decomposition failed")
        uf = UnionFind(n)
        for v in range(n):
            p = self.parent[v]
            if p == v:
                continue
            if not (self.in_forest[v] and self.in_forest[p]):
                raise InvariantViolationError(f"forest edge ({v}, {p}) leaves the forest")
            if not uf.union(v, p):
                raise InvariantViolationError("greedy forest has a cycle")
        # the labels must name exactly the union-find's components
        label_of = {}
        for v in range(n):
            if label_of.setdefault(uf.find(v), self.labels[v]) != self.labels[v]:
                raise InvariantViolationError(f"vertex {v} has another label than its component")
        if len(set(label_of.values())) != len(label_of):
            raise InvariantViolationError("two forest components share a label")


def _greedy(s, rng, fixed, sample_stride, record_steps, invariant_checks):
    """The greedy loop of both modes, run on the fresh state ``s``.

    Point q's partner is fixed[q]; every pool pop, the start vertex's
    included, reads one `_uniforms` stream. The state is sampled every
    ``sample_stride`` steps, or never when it is None. Returns (steps or
    None, trajectory samples or None, first fresh step or None, full count at
    the end of phase 1).
    """
    n, r = s.n, s.r
    revealed, unrevealed, in_forest, full = s.revealed, s.unrevealed, s.in_forest, s.full
    parent, labels, count_z = s.parent, s.labels, s.count_z
    leaves, fresh, pos = s.leaves, s.fresh, s.pos
    # hot counters live in locals; s gets them back before sample() and audit()
    unrevealed_points, full_count = s.unrevealed_points, s.full_count
    steps = [] if record_steps else None
    samples = [s.sample(0, 1)] if sample_stride else None
    next_sample = sample_stride or -1
    phase = 1
    first_fresh_step = full_at_phase1_end = None
    draw = _uniforms(rng).__next__
    t = -1
    while leaves or fresh:
        t += 1
        if leaves:
            op, pool = 1, leaves
        else:
            if t and first_fresh_step is None:
                first_fresh_step, full_at_phase1_end, phase = t, full_count, 2
            op, pool = 2, fresh
            count_z[r] -= 1
        i = int(draw() * len(pool))
        v = pool[i]
        last = pool.pop()
        if last != v:
            pool[i] = last
            pos[last] = i
        partners = []  # vertices of the partners revealed in this step
        notes = [] if record_steps else None
        inside = 0  # partners already in the forest; the last is ``anchor``
        clash = False  # a self-pair or a partner met twice
        for q in range(v * r, v * r + r):
            if revealed[q]:
                continue
            p = fixed[q]
            revealed[q] = revealed[p] = 1
            unrevealed_points -= 2
            w = p // r
            if w == v:
                clash = True
                if record_steps:
                    notes.append((v, "self"))
                continue
            if w in partners:
                clash = True
            if record_steps:
                notes.append((w, s.class_label(w)))
            old = unrevealed[w]
            unrevealed[w] = old - 1
            if in_forest[w]:
                inside += 1
                anchor = w
                if old == r - 1:  # w leaves the leaf pool
                    i = pos[w]
                    last = leaves.pop()
                    if last != w:
                        leaves[i] = last
                        pos[last] = i
            else:
                count_z[old] -= 1
                count_z[old - 1] += 1
                if old == r:  # w leaves the fresh pool
                    i = pos[w]
                    last = fresh.pop()
                    if last != w:
                        fresh[i] = last
                        pos[last] = i
            partners.append(w)
        unrevealed[v] = 0
        success = not clash and inside <= op - 1
        if success:
            if inside:  # a fresh vertex joins its one forest partner's component
                parent[v] = anchor
                labels[v] = labels[anchor]
            label = labels[v]
            for w in partners:
                if not in_forest[w]:
                    in_forest[w] = 1
                    parent[w] = v
                    labels[w] = label
                    count_z[unrevealed[w]] -= 1
                    if unrevealed[w] == r - 1:
                        pos[w] = len(leaves)
                        leaves.append(w)
            in_forest[v] = 1
            full[v] = 1
            full_count += 1
        elif op == 2:
            count_z[0] += 1  # retired unseen: all points revealed, never joined
        if record_steps:
            steps.append(StepOutcome(op=op, processed=v, success=success,
                                     partners=notes))
        if invariant_checks:
            s.unrevealed_points, s.full_count = unrevealed_points, full_count
            s.audit()
        if t == next_sample:
            s.unrevealed_points, s.full_count = unrevealed_points, full_count
            samples.append(s.sample(t, phase))
            next_sample += sample_stride
    s.unrevealed_points, s.full_count = unrevealed_points, full_count
    if samples is not None and t != next_sample - sample_stride:
        samples.append(s.sample(t, phase))
    return steps, samples, first_fresh_step, full_at_phase1_end


def _run(pairing, rng, sample_stride, record_steps, invariant_checks):
    """The greedy on ``pairing``, then completion with the pairing's pairs.

    Returns (SpanningTreeResult, trajectory samples or None).
    """
    n, r = pairing.n, pairing.r
    s = _State(n, r)
    steps, samples, first_fresh_step, full_at_phase1_end = _greedy(
        s, rng, _int64s(pairing.matches), sample_stride, record_steps, invariant_checks)
    full = np.frombuffer(s.full, dtype=np.bool_)
    p, q = pairing._pair_points()
    keys, connected = _complete(n, s.labels, *s.forest_edges(), p // r, q // r, full)
    tree = np.column_stack(np.divmod(keys, n))
    deg = np.bincount(tree.ravel(), minlength=n)
    bad = np.flatnonzero(full & (deg != r))
    if len(bad):
        raise InvariantViolationError(
            f"full-degree vertex {bad[0]} has tree degree {deg[bad[0]]}")
    result = SpanningTreeResult(
        n=n, r=r, tree=tree,
        full_degree_count=s.full_count,
        leaf_count=int(np.count_nonzero(deg == 1)),
        phase1_full_degree_count=(full_at_phase1_end
                                  if full_at_phase1_end is not None else s.full_count),
        rho1_empirical=(first_fresh_step / n if first_fresh_step is not None else None),
        full_vertices=np.flatnonzero(full),
        connected=connected,
        steps=steps,
    )
    return result, samples


def run_on_pairing(pairing, rng, record_steps=False):
    """Run the algorithm on a pairing whose projection is a simple r-regular graph.

    The result's ``connected`` tells whether that graph is connected: the
    tree is then a spanning tree of it, else a spanning forest.
    """
    if pairing.r < 3:
        raise InvalidInputError(f"need r >= 3, got r={pairing.r}")
    result, _ = _run(pairing, rng, None, record_steps, invariant_checks=False)
    return result


def run_on_graph(g, rng, record_steps=False):
    """Run the algorithm on a concrete connected r-regular graph.

    r is read off the degrees, so any regular ``SimpleGraph`` will do.
    """
    if g.n == 0 or g.min_degree() != g.max_degree():
        raise InvalidInputError("graph mode requires a nonempty regular input graph")
    r = g.max_degree()
    # point v*r+i pairs with point w*r+j of w = adj[v][i], where j is v's
    # index in w's sorted list: a stable sort by w puts the points of w's
    # neighbours at w*r..w*r+r-1 in increasing order of the neighbour
    nbrs = np.array(g.adjacency, dtype=np.int64).ravel()
    matches = np.empty(len(nbrs), dtype=np.int64)
    matches[np.argsort(nbrs, kind="stable")] = np.arange(len(nbrs))
    result = run_on_pairing(Pairing(n=g.n, r=r, matches=matches), rng, record_steps)
    if not result.connected:
        raise InvalidInputError("graph mode requires a connected input graph")
    return result


def run_lazy(n, r, rng, sample_stride=None, record_steps=False,
             invariant_checks=False):
    """Run the algorithm against a lazily revealed uniform pairing.

    The pairing is drawn first, by ``sample_pairing(n, r, rng)``. A partner
    fixed in advance and looked at only when revealed is uniform over the
    unrevealed points (deferred decisions; Wormald 1999, section 2), so this
    is the lazily revealed model whose drift system `fdst.ode` integrates.

    Returns (SpanningTreeResult, Trajectory). The result's tree is a
    spanning forest of the projected multigraph (a spanning tree when the
    multigraph is connected); the trajectory samples the scaled class sizes
    every ``sample_stride`` steps (default: ceil(n/1000); at least 1).
    """
    if r < 3:
        raise InvalidInputError(f"need r >= 3, got r={r}")
    if sample_stride is None:
        sample_stride = max(1, -(-n // 1000))
    if sample_stride < 1:
        raise InvalidInputError(f"need sample_stride >= 1, got {sample_stride}")
    pairing = sample_pairing(n, r, rng)
    result, samples = _run(pairing, rng, sample_stride, record_steps, invariant_checks)
    result.pairing = pairing
    trajectory = Trajectory(r=r, n=n, sample_stride=sample_stride,
                            samples=np.asarray(samples))
    return result, trajectory
