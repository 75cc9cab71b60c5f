"""Greedy construction of spanning trees with many full-degree vertices.

One loop serves both modes. It runs against a pairing of the r*n
configuration points (point p belongs to vertex p // r), fixed before the
run, and reveals the partners of a vertex's points only when it processes
that vertex. It grows a forest from a random star, prefers processing
current leaves (L) over unseen vertices (Z_r), and finally completes the
forest to a spanning tree. Completion joins the greedy's own components:
each vertex that joins the forest records its parent, a fresh vertex with
no forest partner starts a component as its root, completion names each
component by its root, and Kruskal's rule (Kruskal, Proc. AMS 7, 1956)
then runs over the pairing's pairs between components alone, smallest
first. A result's tree is the (m, 2) int64 array of its edge rows (u, v),
u < v, in lexicographic order, decoded from completion's sorted keys
u*n + v.
Class bookkeeping follows per-point semantics: a vertex not in the forest
with i unrevealed points is in class Z_i, a forest leaf with r-1 unrevealed
points is in L, and anything hit along the way drops down a class or goes
dormant. A leaf step succeeds when none of its newly revealed partners lies
in the forest, a fresh-vertex step when at most one does; either fails when
one of its points is paired with another of its own or two of them with one
partner. The loop keeps no per-step record: the tests check its decisions
against point-level and graph-level replays of the same random draws.

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
degree, and the self-pair and coincident-partner failures are O(1/n) events.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from . import graphs
from .errors import InvalidInputError, InvariantViolationError
from .graphs import Pairing, index_dtype, sample_pairing
from .ode import columns
from .unionfind import UnionFind


def _uniforms(rng):
    """Endless stream of uniform floats in [0, 1), drawn from ``rng`` 4096 at a time."""
    while True:
        yield from rng.random(4096).tolist()


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
    greedy_steps: int  # processed vertices, the start vertex included
    greedy_components: int  # the forest's components before completion
    connected: bool = True


def _typed(values):
    """The numpy integers ``values`` as a typed array of the same item size."""
    out = array(values.dtype.char)
    out.frombytes(memoryview(np.ascontiguousarray(values)).cast("B"))
    return out


def _complete(n, parent, pairs, saturated):
    """Join the components of a forest with the vertex pairs of ``pairs``, blocks (u, v).

    The forest is ``parent``: a root is its own parent, and every other x
    has the forest edge (x, parent[x]). Each vertex's component is named by
    its root, found by pointer jumping (Wyllie, PhD thesis, Cornell, 1979):
    an acyclic forest settles on its roots within n.bit_length() rounds, so
    labels that are not roots after one more mean ``parent`` has a cycle.
    A pair within one component (a loop, or an edge inside a component) is
    dropped. Kruskal's rule scans the rest by their keys min*n + max,
    smallest first, with a union-find over the components, and keeps a pair
    when it joins two components, so a repeated pair is kept at most once; a
    kept edge may not touch a saturated vertex. Returns the tree, the (m, 2)
    int64 rows (u, v), u < v, decoded from the sorted keys u*n + v of its
    edges, and the forest's component count; the tree spans all n vertices
    when m = n - 1.

    Memory: vertex indices stay in ``index_dtype(n)``, so the greedy's
    typed ``parent`` is read in place, and only the keys are int64. The
    pairs and the forest edges are read a block of ``graphs.BLOCK_SIZE`` at
    a time, so no full-length array of pairs, of their labels or of their
    intp index copies is made, and only each block's cross keys outlive it.
    The labels are freed before the union-find, which reads the component
    indices through memoryviews. The keys are written straight into the
    first half of the tree and decoded there, so the tree is completion's
    one full-length int64 array.
    """
    block_size = graphs.BLOCK_SIZE
    parent = np.asarray(parent, dtype=index_dtype(n))
    labels = parent
    for _ in range(n.bit_length() + 1):
        up = labels[labels]  # np.take would cast the indices to int64
        if np.array_equal(up, labels):
            break
        labels = up
    del up
    if not np.array_equal(parent[labels], labels):
        raise InvariantViolationError("the forest's parent pointers have a cycle")
    roots = np.flatnonzero(parent == np.arange(n, dtype=parent.dtype))
    cross_keys = []
    for u, v in pairs:
        cross = labels[u] != labels[v]
        u, v = u[cross], v[cross]
        cross_keys.append(_keys(n, u, v, np.empty(len(u), dtype=np.int64)))
    cross_keys = np.concatenate(cross_keys)
    cross_keys.sort()
    # component i is the tree of roots[i]; a memoryview yields one int at a
    # time, where tolist() would hold them all
    a = np.searchsorted(roots, labels[cross_keys // n])
    b = np.searchsorted(roots, labels[cross_keys % n])
    del labels
    union = UnionFind(len(roots)).union
    kept = np.fromiter(map(union, memoryview(a), memoryview(b)), dtype=bool, count=len(a))
    cross_keys = cross_keys[kept]
    lo, hi = np.divmod(cross_keys, n)
    bad = np.flatnonzero(saturated[lo] | saturated[hi])
    if len(bad):
        raise InvariantViolationError(
            f"completion tried to add ({lo[bad[0]]}, {hi[bad[0]]}) at a full-degree vertex")
    m = n - len(roots) + len(cross_keys)
    tree = np.empty((m, 2), dtype=np.int64)
    keys = tree.reshape(-1)[:m]
    end = 0
    for start in range(0, n, block_size):  # the forest edges (x, parent[x])
        block = parent[start:start + block_size]
        ids = np.arange(start, start + len(block), dtype=block.dtype)
        child = block != ids
        count = np.count_nonzero(child)
        _keys(n, ids[child], block[child], keys[end:end + count])
        end += count
    keys[end:] = cross_keys
    keys.sort()
    # row i lies at entries 2i and 2i+1, at or after key i: decoded from the
    # last block back, from a copy of its keys, a block's rows overwrite only
    # keys already decoded
    for start in reversed(range(0, m, block_size)):
        rows = tree[start:start + block_size]
        np.divmod(keys[start:start + block_size].copy(), n, out=(rows[:, 0], rows[:, 1]))
    return tree, len(roots)


def _keys(n, u, v, out):
    """Write the int64 keys min*n + max of the vertex pairs (u[i], v[i]) into ``out``."""
    np.minimum(u, v, out=out)
    out *= n
    out += np.maximum(u, v)
    return out


class _State:
    """Bookkeeping of one run: unrevealed points, vertex classes, pools and forest.

    ``unrevealed[v]`` counts v's unrevealed points; no per-point mark is
    kept, because the counts imply the marks: while v is unprocessed, its
    point q is revealed exactly when the vertex of q's partner has no
    unrevealed point left. The leaf pool ``leaves`` holds the forest leaves
    with r-1 unrevealed points, the fresh pool ``fresh`` the unseen vertices
    (class Z_r) not yet processed. No vertex is in both, so they share
    ``pos``: pos[x] is x's index in its pool. The forest is ``parent``: a
    root is its own parent and any other forest vertex has the vertex whose
    step joined it; a vertex outside the forest is a root. Completion finds
    the components from it.

    Memory: the counts are one byte each below r = 256, and ``parent``,
    ``fresh`` and ``pos`` are typed arrays of ``index_dtype(n)``, four bytes
    an entry below n = 2**31. The state is the greedy's scratch: `_run` keeps
    only ``parent``, ``full`` and ``full_count`` and frees the rest before
    completion. The greedy reads the pairing's own ``matches``, not a copy,
    and `_run` drops the pairing once completion has read its pairs.
    """

    def __init__(self, n, r):
        self.n = n
        self.r = r
        self.unrevealed_points = n * r
        # a bytearray indexes faster than array("B"); it holds counts below 256
        self.unrevealed = bytearray([r]) * n if r < 256 else [r] * n
        self.in_forest = bytearray(n)
        self.full = bytearray(n)
        ids = np.arange(n, dtype=index_dtype(n))
        self.parent = _typed(ids)
        self.count_z = [0] * (r + 1)
        self.count_z[r] = n
        self.full_count = 0
        self.leaves = []
        self.fresh = _typed(ids)
        self.pos = _typed(ids)

    def sample(self, steps, phase):
        n = self.n
        return (steps / n, *(c / n for c in self.count_z[1:]), len(self.leaves) / n,
                self.full_count / n, self.unrevealed_points / n, phase)

    def audit(self, fixed):
        """O(n r) recomputation of every incremental counter and pool, and of the forest.

        The unrevealed counts are recounted from the pairing ``fixed``: a pair
        is unrevealed exactly when both of its vertices have unrevealed points.
        """
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
        unrevealed = self.unrevealed
        total = sum(unrevealed)
        recount = [sum(1 for p in fixed[v * r:v * r + r] if unrevealed[p // r])
                   if unrevealed[v] else 0 for v in range(n)]
        ok = (count_z == self.count_z
              and leaves == set(self.leaves)
              and fresh == set(self.fresh)
              and all(self.pos[x] == i for pool in (self.leaves, self.fresh)
                      for i, x in enumerate(pool))
              and recount == list(unrevealed)
              and self.unrevealed_points == total
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


def _greedy(s, rng, fixed, sample_stride, invariant_checks):
    """The greedy loop of both modes, run on the fresh state ``s``.

    Point q's partner is fixed[q]; every pool pop, the start vertex's
    included, reads one `_uniforms` stream. The state after k steps is
    sampled at x = k/n, as in the drift system, when k is a multiple of
    ``sample_stride`` (never when it is None) and at the end. Returns (steps,
    samples or None, first fresh step or None, full count at phase 1's end).
    """
    n, r = s.n, s.r
    unrevealed, in_forest, full = s.unrevealed, s.in_forest, s.full
    parent, count_z = s.parent, s.count_z
    leaves, fresh, pos = s.leaves, s.fresh, s.pos
    # hot counters live in locals; s gets them back before sample() and audit()
    unrevealed_points, full_count = s.unrevealed_points, s.full_count
    samples = [s.sample(0, 1)] if sample_stride else None
    next_sample = sample_stride or -1
    phase = 1
    first_fresh_step = full_at_phase1_end = None
    draw = _uniforms(rng).__next__
    steps = 0
    while leaves or fresh:
        if leaves:
            op, pool = 1, leaves
        else:
            if steps and first_fresh_step is None:
                first_fresh_step, full_at_phase1_end, phase = steps, full_count, 2
            op, pool = 2, fresh
            count_z[r] -= 1
        i = int(draw() * len(pool))
        v = pool[i]
        last = pool.pop()
        if last != v:
            pool[i] = last
            pos[last] = i
        partners = []  # vertices of the partners revealed in this step
        inside = 0  # partners already in the forest; the last is ``anchor``
        clash = False  # a self-pair or a partner met twice
        for q in range(v * r, v * r + r):
            p = fixed[q]
            w = p // r
            # revealed when w was processed; a self-pair is met at its lower point
            if not unrevealed[w] or w == v and p < q:
                continue
            unrevealed_points -= 2
            if w == v:
                clash = True
                continue
            if w in partners:
                clash = True
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
            for w in partners:
                if not in_forest[w]:
                    in_forest[w] = 1
                    parent[w] = v
                    count_z[unrevealed[w]] -= 1
                    if unrevealed[w] == r - 1:
                        pos[w] = len(leaves)
                        leaves.append(w)
            in_forest[v] = 1
            full[v] = 1
            full_count += 1
        elif op == 2:
            count_z[0] += 1  # retired unseen: all points revealed, never joined
        if invariant_checks:
            s.unrevealed_points, s.full_count = unrevealed_points, full_count
            s.audit(fixed)
        steps += 1
        if steps == next_sample:
            s.unrevealed_points, s.full_count = unrevealed_points, full_count
            samples.append(s.sample(steps, phase))
            next_sample += sample_stride
    s.unrevealed_points, s.full_count = unrevealed_points, full_count
    if samples is not None and steps % sample_stride:  # the loop took multiples only
        samples.append(s.sample(steps, phase))
    return steps, samples, first_fresh_step, full_at_phase1_end


def _run(draw_pairing, rng, sample_stride, invariant_checks):
    """The greedy on the pairing ``draw_pairing()``, then completion with its pairs.

    The pairing is drawn here, so no caller holds it (an argument would live
    on in the caller's frame under Python 3.10) and a pairing no caller
    keeps is freed once completion has read its pairs. Returns
    (SpanningTreeResult, trajectory samples or None).
    """
    pairing = draw_pairing()
    n, r = pairing.n, pairing.r
    s = _State(n, r)
    greedy_steps, samples, first_fresh_step, full_at_phase1_end = _greedy(
        s, rng, memoryview(pairing.matches), sample_stride, invariant_checks)
    parent, full, full_count = s.parent, np.frombuffer(s.full, dtype=np.bool_), s.full_count
    pairs = pairing.vertex_pairs()
    # the greedy's scratch, freed before completion; the pairing is freed
    # once completion has read its last block of pairs
    del s, pairing
    tree, components = _complete(n, parent, pairs, full)
    del parent
    deg = np.bincount(tree.ravel(), minlength=n)
    bad = np.flatnonzero(full & (deg != r))
    if len(bad):
        raise InvariantViolationError(
            f"full-degree vertex {bad[0]} has tree degree {deg[bad[0]]}")
    result = SpanningTreeResult(
        n=n, r=r, tree=tree,
        full_degree_count=full_count,
        leaf_count=int(np.count_nonzero(deg == 1)),
        phase1_full_degree_count=(full_at_phase1_end
                                  if full_at_phase1_end is not None else full_count),
        rho1_empirical=(first_fresh_step / n if first_fresh_step is not None else None),
        full_vertices=np.flatnonzero(full),
        greedy_steps=greedy_steps,
        greedy_components=components,
        connected=len(tree) == n - 1,
    )
    return result, samples


def run_on_pairing(pairing, rng):
    """Run the algorithm on a pairing whose projection is a simple r-regular graph.

    The result's ``connected`` tells whether that graph is connected: the
    tree is then a spanning tree of it, else a spanning forest.
    """
    if pairing.r < 3:
        raise InvalidInputError(f"need r >= 3, got r={pairing.r}")
    result, _ = _run(lambda: pairing, rng, None, invariant_checks=False)
    return result


def run_on_graph(g, rng):
    """Run the algorithm on a concrete connected r-regular graph.

    r is read off the degrees, so any regular ``SimpleGraph`` will do.
    """
    r = g.r
    if r is None:
        raise InvalidInputError("graph mode requires a nonempty regular input graph")
    # point v*r+i pairs with point w*r+j of w = adj[v][i], where j is v's
    # index in w's sorted list: a stable sort by w puts the points of w's
    # neighbours at w*r..w*r+r-1 in increasing order of the neighbour
    dtype = index_dtype(g.n * r)
    nbrs = np.array(g.adjacency, dtype=dtype).ravel()
    matches = np.empty(len(nbrs), dtype=dtype)
    matches[np.argsort(nbrs, kind="stable")] = np.arange(len(nbrs), dtype=dtype)
    result = run_on_pairing(Pairing(n=g.n, r=r, matches=matches), rng)
    if not result.connected:
        raise InvalidInputError("graph mode requires a connected input graph")
    return result


def run_lazy(n, r, rng, sample_stride=None, invariant_checks=False):
    """Run the algorithm against a lazily revealed uniform pairing.

    The pairing is drawn first, by ``sample_pairing(n, r, rng)``. A partner
    fixed in advance and looked at only when revealed is uniform over the
    unrevealed points (deferred decisions; Wormald 1999, section 2), so this
    is the lazily revealed model whose drift system `fdst.ode` integrates.

    Returns (SpanningTreeResult, Trajectory). The result's tree is a
    spanning forest of the projected multigraph (a spanning tree when the
    multigraph is connected); the trajectory samples the scaled class sizes
    every ``sample_stride`` steps (default: ceil(n/1000); at least 1). The
    state after k steps is at x = k/n, and the end state is always sampled.
    """
    if r < 3:
        raise InvalidInputError(f"need r >= 3, got r={r}")
    if sample_stride is None:
        sample_stride = max(1, -(-n // 1000))
    if sample_stride < 1:
        raise InvalidInputError(f"need sample_stride >= 1, got {sample_stride}")
    result, samples = _run(lambda: sample_pairing(n, r, rng), rng, sample_stride,
                           invariant_checks)
    trajectory = Trajectory(r=r, n=n, sample_stride=sample_stride,
                            samples=np.asarray(samples))
    return result, trajectory
