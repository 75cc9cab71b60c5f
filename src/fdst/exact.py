"""Exact brute-force oracles for full-degree, max-leaf, and connected-domination
numbers on small graphs, plus the extremal product constructions.

Every search works on one view of the graph: per vertex, the bitmask of its
neighbours. Two independent routes are kept for the full-degree number:
exhaustive spanning-tree enumeration (deletion/contraction) and a
branch-and-bound search over vertex sets whose star union is acyclic. They
must agree wherever both run; that agreement is the primary anti-bug defense.

The enumeration keeps its state in edge bitmasks (remaining edges, and per
super-vertex the edges leaving it) and scores the last contraction level in
a batch. The star search keeps its forest as a list of component masks. The
minimum connected dominating set search lists connected vertex sets only,
at sizes upward from the tree bound ceil((n-2)/(D-1)), below which no CDS
exists.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvariantViolationError, SizeGuardError
from .graphs import graph_from_edges

# largest n each search accepts; the enumeration cross-check also stops above
# TREE_COUNT_LIMIT spanning trees
STAR_GUARD = 24
CDS_GUARD = 20
TREE_GUARD = 12
TREE_COUNT_LIMIT = 500_000


@dataclass
class TreeExtrema:
    """Extremal statistics over all spanning trees of one graph."""

    tree_count: int
    max_full: int
    max_full_tree: list
    max_leaves: int
    max_leaves_tree: list


@dataclass
class ExactResult:
    """Exact phi, lambda and gamma_C with witnesses. ``tree_count`` is the
    number of spanning trees the enumeration cross-check listed, or None
    when that check did not run."""

    phi: int
    lam: int
    gamma_c: int
    witness_tree: list
    witness_cds: list
    witness_full_set: list
    tree_count: int | None


def _neighbour_masks(g):
    """Per vertex, the bitmask of its neighbours; the graph must be connected."""
    nbrs = [sum(1 << w for w in adj) for adj in g.adjacency]
    if _reach(nbrs, 0) != (1 << g.n) - 1:
        raise InvalidInputError("oracle requires a connected graph")
    return nbrs


def _reach(nbrs, a, stop=0):
    """The mask of vertices reachable from a; the search ends once it meets ``stop``."""
    reach = frontier = 1 << a
    while frontier and not reach & stop:
        nxt = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            nxt |= nbrs[bit.bit_length() - 1]
        frontier = nxt & ~reach
        reach |= frontier
    return reach


def spanning_tree_extrema(g, max_vertices=16):
    """Enumerate every spanning tree once, tracking full-degree and leaf maxima.

    Deletion/contraction over edge bitmasks, in the order of ``g.edges()``:
    the lowest remaining edge is the pivot, and the branch that keeps it runs
    before the branch that drops it, so each recursion leaf is a distinct tree.

    - ``R`` is the mask of remaining edges. Each super-vertex keeps the mask of
      edges with exactly one end in it, so contracting B into A is
      ``cut[A] ^ cut[B]``: the edges the two share cancel, and the loops the
      contraction makes leave ``R`` with them.
    - When two super-vertices remain, each edge left in ``R`` joins them into
      one tree. That level is counted and scored in a batch, from per-vertex
      gains indexed by the tree degree, instead of recursing.
    - The drop branch runs only if the rest stays connected: always when the
      pivot has a parallel copy, never when one of its super-vertices has no
      other remaining edge, and otherwise when a bitmask search over the
      original vertices, along every edge not dropped, reaches one end of the
      pivot from the other.

    This is backtracking listing in the sense of Read & Tarjan (Networks 5,
    1975), with O(n) word operations per search node.
    """
    n = g.n
    if n > max_vertices:
        raise SizeGuardError(f"tree enumeration guarded at n <= {max_vertices}, got {n}")
    nbrs = _neighbour_masks(g)  # per vertex: its neighbours along edges not dropped
    if n == 1:
        return TreeExtrema(1, 1, [], 0, [])
    ends = g.edges()
    # gains of one more tree edge at v, indexed by v's tree degree before it
    full_gain = [[int(k + 1 == g.degree(v)) for k in range(g.degree(v))]
                 for v in range(n)]
    leaf_gain = [1, -1] + [0] * g.max_degree()
    deg_t = [0] * n
    cut = [0] * n       # per super-vertex: the edges with exactly one end in it
    for i, (u, v) in enumerate(ends):
        cut[u] |= 1 << i
        cut[v] |= 1 << i
    comp = list(range(n))               # the super-vertex holding each vertex
    members = [[v] for v in range(n)]   # the vertices of each super-vertex
    chosen = []
    last = n - 2
    count = 0
    best_full = best_leaves = -1
    best_full_tree = best_leaves_tree = None

    def rec(R, full, leaves):
        nonlocal count, best_full, best_leaves, best_full_tree, best_leaves_tree
        if len(chosen) == last:
            count += R.bit_count()
            if full + 2 <= best_full and leaves + 2 <= best_leaves:
                return
            while R:
                low = R & -R
                R ^= low
                a, b = ends[low.bit_length() - 1]
                da, db = deg_t[a], deg_t[b]
                f = full + full_gain[a][da] + full_gain[b][db]
                if f > best_full:
                    best_full = f
                    best_full_tree = chosen + [(a, b)]
                f = leaves + leaf_gain[da] + leaf_gain[db]
                if f > best_leaves:
                    best_leaves = f
                    best_leaves_tree = chosen + [(a, b)]
            return
        low = R & -R
        a, b = ends[low.bit_length() - 1]
        A, B = comp[a], comp[b]
        cut_a, cut_b = cut[A], cut[B]
        between = cut_a & cut_b
        # include the pivot: contract the smaller super-vertex into the larger
        if len(members[A]) < len(members[B]):
            A, B = B, A
        kept = cut[A]
        moved = members[B]
        for v in moved:
            comp[v] = A
        members[A] += moved
        cut[A] = cut_a ^ cut_b
        da, db = deg_t[a], deg_t[b]
        deg_t[a] = da + 1
        deg_t[b] = db + 1
        chosen.append((a, b))
        rec(R & ~between, full + full_gain[a][da] + full_gain[b][db],
            leaves + leaf_gain[da] + leaf_gain[db])
        chosen.pop()
        deg_t[a] = da
        deg_t[b] = db
        cut[A] = kept
        del members[A][-len(moved):]
        for v in moved:
            comp[v] = B
        # exclude the pivot: only if the rest stays connected
        R ^= low
        parallel = between & R
        if not parallel and not (cut_a & R and cut_b & R):
            return
        nbrs[a] ^= 1 << b
        nbrs[b] ^= 1 << a
        if parallel or _reach(nbrs, a, 1 << b) >> b & 1:
            rec(R, full, leaves)
        nbrs[a] ^= 1 << b
        nbrs[b] ^= 1 << a

    rec((1 << len(ends)) - 1, 0, 0)
    return TreeExtrema(
        tree_count=count,
        max_full=best_full,
        max_full_tree=sorted(best_full_tree),
        max_leaves=best_leaves,
        max_leaves_tree=sorted(best_leaves_tree),
    )


def phi_exact_trees(g):
    """Maximum full-degree count over all spanning trees, with a witness tree."""
    ext = spanning_tree_extrema(g, max_vertices=TREE_GUARD)
    return ext.max_full, ext.max_full_tree


def _add_star(comps, star):
    """The component masks after joining ``star``, a centre and the ends of its
    new edges, to the forest ``comps``; None if some component meets it twice,
    which is exactly when the new edges close a cycle."""
    joined = star
    rest = []
    for comp in comps:
        hit = comp & star
        if not hit:
            rest.append(comp)
        elif hit & (hit - 1):
            return None
        else:
            joined |= comp
    rest.append(joined)
    return rest


def star_union_is_forest(g, vertices):
    """Whether the union of the closed stars of ``vertices`` is acyclic in g."""
    comps, chosen = [], 0
    for v in vertices:
        if not chosen >> v & 1:
            comps = _add_star(comps, sum(1 << w for w in g.adjacency[v]) & ~chosen | 1 << v)
            if comps is None:
                return False
            chosen |= 1 << v
    return True


def phi_exact_stars(g):
    """Full-degree number via branch-and-bound over acyclic star unions.

    A vertex set is simultaneously realizable as full-degree vertices of one
    spanning tree exactly when the union of its stars is a forest: a forest
    extends to a spanning tree that adds no edge at a saturated vertex, and
    conversely the stars of full-degree vertices all lie inside the tree.
    """
    n = g.n
    if n > STAR_GUARD:
        raise SizeGuardError(f"star search guarded at n <= {STAR_GUARD}, got {n}")
    nbrs = _neighbour_masks(g)
    delta = g.min_degree()
    hard_ub = (n - 2) // (delta - 1) if delta >= 2 else n
    best = [0, 0]

    def rec(v, comps, chosen, count):
        if count > best[0]:
            best[0] = count
            best[1] = chosen
        if best[0] >= hard_ub:
            return True  # provably optimal, cut everything
        if v == n or count + (n - v) <= best[0]:
            return False
        # v's new edges go to its neighbours not chosen before it
        joined = _add_star(comps, nbrs[v] & ~chosen | 1 << v)
        if joined is not None and rec(v + 1, joined, chosen | 1 << v, count + 1):
            return True
        return rec(v + 1, comps, chosen, count)

    rec(0, [], 0, 0)
    return best[0], [v for v in range(n) if best[1] >> v & 1]


def lambda_gamma_exact(g):
    """Minimum connected dominating set by a search over connected vertex sets.

    Returns (lambda, gamma_c, witness_tree, witness_cds) using the exchange
    between spanning-tree leaves and connected dominating sets: the
    non-leaves of a tree dominate, and a CDS pins everything else as leaves.

    The size loop starts at ceil((n-2)/(D-1)) for maximum degree D, since no
    smaller CDS exists: a CDS S carries a spanning tree whose i internal
    vertices all lie in S, and the tree's degree sum gives
    2(n-1) <= D*i + (n-i), so |S| >= i >= (n-2)/(D-1). This is the tree
    bound behind ``check_propositions``' phi_upper. It is never below the
    domination bound ceil(n/(D+1)), because D <= n-1.

    Each connected set S of size k is listed once, grown from its smallest
    vertex v (ESU; Wernicke, IEEE/ACM TCBB 3, 2006): taking w from the
    extension set adds w's neighbours above v outside N[S]. A vertex taken
    next is covered and has a neighbour in S, so it covers at most D-1 new
    vertices, and S is dropped once |V \\ N[S]| > (k - |S|)(D-1). The
    witness is the lexicographically smallest CDS of the least size.
    """
    n = g.n
    if n > CDS_GUARD:
        raise SizeGuardError(f"CDS search guarded at n <= {CDS_GUARD}, got {n}")
    nbrs = _neighbour_masks(g)
    if n < 3:
        raise InvalidInputError("leaf/domination exchange needs n >= 3")
    full = (1 << n) - 1
    slack = g.max_degree() - 1
    hits = []

    def grow(chosen, cover, ext, size):
        if (full ^ cover).bit_count() > (k - size) * slack:
            return
        if size == k:
            hits.append(chosen)
            return
        while ext:
            low = ext & -ext
            ext ^= low
            adj = nbrs[low.bit_length() - 1]
            grow(chosen | low, cover | adj, ext | adj & above & ~cover, size + 1)

    for k in range(max(1, -(-(n - 2) // slack)), n + 1):
        for v in range(n):
            above = full ^ ((2 << v) - 1)
            grow(1 << v, nbrs[v] | 1 << v, nbrs[v] & above, 1)
            if hits:
                break
        if hits:
            break
    cds = min([u for u in range(n) if s >> u & 1] for s in hits)
    gamma = len(cds)
    lam = n - gamma
    tree = _tree_with_pendants(g, cds)
    deg = np.bincount(np.asarray(tree, dtype=np.int64).ravel(), minlength=g.n)
    leaves = int(np.count_nonzero(deg == 1))
    if leaves != lam:
        raise InvariantViolationError(
            f"CDS witness tree has {leaves} leaves, expected {lam}")
    return lam, gamma, tree, cds


def _tree_with_pendants(g, dominating):
    """Spanning tree whose leaves are exactly the complement of ``dominating``."""
    dset = set(dominating)
    tree = []
    # spanning tree of the induced connected subgraph
    seen = {dominating[0]}
    stack = [dominating[0]]
    while stack:
        u = stack.pop()
        for w in g.adjacency[u]:
            if w in dset and w not in seen:
                seen.add(w)
                tree.append((u, w) if u < w else (w, u))
                stack.append(w)
    # every other vertex hangs off its smallest dominating neighbor
    for v in range(g.n):
        if v in dset:
            continue
        anchor = next(w for w in g.adjacency[v] if w in dset)
        tree.append((v, anchor) if v < anchor else (anchor, v))
    return sorted(tree)


def kirchhoff_tree_count(g):
    """Spanning-tree count via the matrix-tree determinant."""
    lap = np.zeros((g.n, g.n))
    for u, v in g.edges():
        lap[u, u] += 1.0
        lap[v, v] += 1.0
        lap[u, v] -= 1.0
        lap[v, u] -= 1.0
    return round(float(np.linalg.det(lap[1:, 1:])))


def exact_result(g):
    """Full ExactResult with cross-checked phi and lambda when the tree oracle is cheap.

    The enumeration cross-check runs when n <= TREE_GUARD and the Kirchhoff
    count is at most TREE_COUNT_LIMIT; enumerating a dense graph's millions
    of trees adds nothing over the star search.
    """
    phi_s, full_set = phi_exact_stars(g)
    lam, gamma, tree, cds = lambda_gamma_exact(g)
    tree_count = None
    if g.n <= TREE_GUARD and (count := kirchhoff_tree_count(g)) <= TREE_COUNT_LIMIT:
        ext = spanning_tree_extrema(g, max_vertices=TREE_GUARD)
        if ext.max_full != phi_s:
            raise InvariantViolationError(
                f"oracle disagreement: trees say {ext.max_full}, stars say {phi_s}")
        if ext.max_leaves != lam:
            raise InvariantViolationError(
                f"oracle disagreement: trees say lambda = {ext.max_leaves}, "
                f"CDS search says {lam}")
        if ext.tree_count != count:
            raise InvariantViolationError(
                f"enumerated {ext.tree_count} trees, determinant says {count}")
        tree_count = ext.tree_count
    return ExactResult(phi=phi_s, lam=lam, gamma_c=gamma,
                       witness_tree=tree, witness_cds=cds,
                       witness_full_set=full_set, tree_count=tree_count)


def check_propositions(g, exact):
    """Per-inequality report for the degree bounds and the leaf/domination identities."""
    n = g.n
    dmax = g.max_degree()
    dmin = g.min_degree()
    checks = {}

    lower = n / (dmax * (dmax - 1) + 1)
    checks["phi_lower"] = {
        "statement": f"phi >= n/(D(D-1)+1) = {lower:.4f}",
        "value": exact.phi,
        "passed": exact.phi >= lower - 1e-9,
        "slack": exact.phi - lower,
    }
    if dmin >= 2:
        upper = (n - 2) / (dmin - 1)
        checks["phi_upper"] = {
            "statement": f"phi <= (n-2)/(d-1) = {upper:.4f}",
            "value": exact.phi,
            "passed": exact.phi <= upper + 1e-9,
            "slack": upper - exact.phi,
        }
    checks["leaf_domination_identity"] = {
        "statement": "lambda = n - gamma_c",
        "value": (exact.lam, n - exact.gamma_c),
        "passed": exact.lam == n - exact.gamma_c,
        "slack": 0,
    }
    if dmax == dmin:
        r = dmax
        if r == 3:
            checks["cubic_leaf_identity"] = {
                "statement": "lambda = phi + 2",
                "value": (exact.lam, exact.phi + 2),
                "passed": exact.lam == exact.phi + 2,
                "slack": exact.lam - exact.phi - 2,
            }
        elif r >= 4:
            checks["leaf_lower_bound"] = {
                "statement": f"lambda >= (r-2)*phi + 2 = {(r - 2) * exact.phi + 2}",
                "value": exact.lam,
                "passed": exact.lam >= (r - 2) * exact.phi + 2,
                "slack": exact.lam - (r - 2) * exact.phi - 2,
            }
    checks["all_pass"] = all(
        c["passed"] for k, c in checks.items() if isinstance(c, dict))
    return checks


def construct_prism_torus(r, m):
    """Cartesian product of K_{r-1} with an m-cycle; r-regular on (r-1)*m vertices."""
    if r < 3:
        raise InvalidInputError(f"need r >= 3, got {r}")
    if m < 3:
        raise InvalidInputError(f"need m >= 3, got {m}")
    k = r - 1

    def idx(i, j):
        return j * k + i

    edges = set()
    for j in range(m):
        for a in range(k):
            for b in range(a + 1, k):
                edges.add((idx(a, j), idx(b, j)))
            u, v = idx(a, j), idx(a, (j + 1) % m)
            edges.add((min(u, v), max(u, v)))
    return graph_from_edges(k * m, sorted(edges), r=r)


def prism_torus_witness(r, m):
    """A set of m-2 vertices, one per clique layer, whose star union is a forest."""
    k = r - 1
    return [j * k for j in range(m - 2)]


def construct_grid_torus(delta, m):
    """(K_{s} x K_{s}) x C_m with s = delta/2; delta-regular on s^2*m vertices."""
    if delta < 4 or delta % 2:
        raise InvalidInputError(f"need even delta >= 4, got {delta}")
    if m < 3:
        raise InvalidInputError(f"need m >= 3, got {m}")
    s = delta // 2

    def idx(a, b, j):
        return j * s * s + a * s + b

    edges = set()
    for j in range(m):
        for a in range(s):
            for b in range(s):
                for a2 in range(a + 1, s):
                    edges.add((idx(a, b, j), idx(a2, b, j)))
                for b2 in range(b + 1, s):
                    edges.add((idx(a, b, j), idx(a, b2, j)))
                u, v = idx(a, b, j), idx(a, b, (j + 1) % m)
                edges.add((min(u, v), max(u, v)))
    return graph_from_edges(s * s * m, sorted(edges), r=delta)
