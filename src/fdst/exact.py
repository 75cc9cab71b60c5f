"""Exact brute-force oracles for full-degree, max-leaf, and connected-domination
numbers on small graphs, plus the extremal product constructions.

Every search works on one view of the graph: per vertex, the bitmask of its
neighbours. Two independent routes are kept for the full-degree and leaf
numbers: a frontier DP over the edges that counts every spanning tree and
scores them all, returning only the count and the two maxima, and the star
and CDS searches, which supply every witness. They must agree wherever both
run; that agreement is the primary anti-bug defense. The DP's tree count is
checked in turn against Kirchhoff's, an exact integer determinant.

The DP merges partial forests that look alike on the frontier, the vertices
with edges both decided and undecided, so it never lists a tree. Its table
has two levels, the frontier's component partition and then the packed
degree and skipped-edge bits, so the component work runs once per partition
and each state costs only int arithmetic. The star search keeps its forest
as a list of component masks. The minimum connected dominating set search
lists connected vertex sets only, at sizes upward from the tree bound
ceil((n-2)/(D-1)), below which no CDS exists.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import cartesian_product, complete_graph, cycle_graph
from .errors import InvalidInputError, InvariantViolationError
from .graphs import is_connected

# largest n every oracle accepts, widest frontier the DP accepts (its cost grows
# with that width, not with n), and the tree cross-check's n and tree limits
SEARCH_GUARD = 20
MAX_FRONTIER = 8
TREE_GUARD = 12
TREE_COUNT_LIMIT = 500_000


@dataclass
class TreeExtrema:
    """Extremal statistics over all spanning trees of one graph."""

    tree_count: int
    max_full: int
    max_leaves: int


@dataclass
class ExactResult:
    """Exact phi, lambda and gamma_C with witnesses. ``tree_count`` is the
    number of spanning trees the tree cross-check counted, or None when that
    check did not run."""

    phi: int
    lam: int
    gamma_c: int
    witness_tree: list
    witness_cds: list
    witness_full_set: list
    tree_count: int | None


def _admit(g, oracle):
    """Refuse a graph above SEARCH_GUARD vertices, then a disconnected one."""
    if g.n > SEARCH_GUARD:
        raise InvalidInputError(f"{oracle} guarded at n <= {SEARCH_GUARD}, got {g.n}")
    if not is_connected(g):
        raise InvalidInputError("oracle requires a connected graph")


def _neighbour_masks(g):
    """Per vertex, the bitmask of its neighbours."""
    return [sum(1 << w for w in adj) for adj in g.adjacency]


def _frontier_edge_order(g):
    """The (max, sum) cost of the frontier sizes, and the edges in the order
    the frontier DP decides them; the max, the order's width, is at most n - 1.

    For each start vertex, the edges are sorted by the BFS positions (neighbours
    ascending) of their later and then their earlier end. The frontier after an
    edge is the set of vertices with an edge decided and an edge undecided;
    the start whose frontier sizes have the least (max, sum) wins, the smallest
    start on a tie.
    """
    best = None
    for s in range(g.n):
        pos = {s: 0}
        queue = [s]
        for v in queue:
            for w in sorted(g.adjacency[v]):
                if w not in pos:
                    pos[w] = len(pos)
                    queue.append(w)
        edges = sorted(g.edges(), key=lambda e: (max(pos[e[0]], pos[e[1]]),
                                                  min(pos[e[0]], pos[e[1]])))
        undecided = [g.degree(v) for v in range(g.n)]
        size, sizes = 0, []
        for a, b in edges:
            for v in (a, b):  # v joins at its first edge and leaves at its last
                size += (undecided[v] == g.degree(v)) - (undecided[v] == 1)
                undecided[v] -= 1
            sizes.append(size)
        cost = (max(sizes), sum(sizes))
        if best is None or cost < best[0]:
            best = (cost, edges)
    return best


def spanning_tree_extrema(g):
    """Count the spanning trees and find the full-degree and leaf maxima.

    A frontier DP over the edges: the deletion/contraction of Sekine, Imai &
    Tani (ISAAC 1995), with the states merged on the frontier as in Kawahara,
    Inoue, Iwashita & Minato (IEICE Trans. Fundamentals E100-A(9), 2017). The
    edges are decided in ``_frontier_edge_order``, each taken or skipped. No
    tree is listed and no determinant is taken, so the count is an independent
    check of Kirchhoff's.

    - The table has two levels. Its outer key, the partition, is the sorted
      component masks of the frontier vertices. Its inner key is one int that
      packs three frontier masks: tree degree >= 1, tree degree >= 2, and an
      edge at the vertex was skipped. Its value is (tree count, best full
      count, best leaf count).
    - Taking an edge merges the components of its ends, and is dropped when
      both lie in one component (a cycle). Skipping it marks both ends.
    - When a vertex's last edge is decided it leaves the frontier: it is full
      when none of its edges was skipped, and a leaf when its tree degree is 1.
      A component left empty is closed, which is allowed only when it is the
      one component left; in a connected graph that is at the last edge.
    - The component work depends on the partition alone, so each move's child
      partition, or its drop, is found once per partition. Every state of the
      partition is then folded into the child's inner table with int
      arithmetic only.
    - States with equal keys merge: counts add, and each maximum keeps the
      larger value.
    """
    n = g.n
    _admit(g, "spanning-tree DP")
    if n == 1:
        return TreeExtrema(1, 1, 0)
    (width, _), edges = _frontier_edge_order(g)
    if width > MAX_FRONTIER:
        raise InvalidInputError(
            f"spanning-tree DP guarded at frontier width <= {MAX_FRONTIER}, got {width}")
    last = {}
    for i, (a, b) in enumerate(edges):
        last[a] = last[b] = i
    lo = 2 * n  # the shift of the skipped-edge mask in a packed int
    table = {(): {0: (1, 0, 0)}}
    for i, (a, b) in enumerate(edges):
        A, B = 1 << a, 1 << b
        ends = A | B
        gone = (A if last[a] == i else 0) | (B if last[b] == i else 0)
        keep = ~(gone | gone << n | gone << lo)
        nxt = {}
        for partition, states in table.items():
            rest = []
            ca, cb = A, B  # an end new to the frontier is its own component
            for c in partition:
                if c & ends:
                    if c & A:
                        ca = c
                    if c & B:
                        cb = c
                else:
                    rest.append(c)
            # a move is (its parts, the ends whose degree rises, the bits it
            # sets); the skip sets the skipped bits of both ends
            moves = [([ca, cb] if ca != cb else [ca], 0, ends << lo)]
            if ca != cb:
                moves.append(([ca | cb], ends, ends))
            for parts, up, add in moves:
                if gone:
                    parts = [c & ~gone for c in parts]
                    if 0 in parts and (rest or len(parts) > 1):
                        continue
                child = nxt.setdefault(tuple(sorted(rest + [c for c in parts if c])), {})
                for packed, (count, f, lv) in states.items():
                    p = packed | (packed & up) << n | add
                    if gone:
                        f += (gone & ~(p >> lo)).bit_count()
                        lv += (gone & p & ~(p >> n)).bit_count()
                        p &= keep
                    old = child.get(p)
                    if old is not None:
                        count += old[0]
                        if f < old[1]:
                            f = old[1]
                        if lv < old[2]:
                            lv = old[2]
                    child[p] = (count, f, lv)
        table = nxt
    return TreeExtrema(*table[()][0])


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
    _admit(g, "star search")
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
    _admit(g, "CDS search")
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
    """Spanning-tree count via the matrix-tree theorem, exact in integers.

    The determinant of the Laplacian without vertex 0's row and column, by
    fraction-free elimination (Bareiss, Math. Comp. 22, 1968): every division
    is exact. Each pivot is a leading principal minor, and the matrix is
    positive semidefinite, so by Fischer's inequality a zero pivot makes the
    determinant zero.
    """
    lap = [[g.degree(v) if v == w else -int(g.has_edge(v, w)) for w in range(1, g.n)]
           for v in range(1, g.n)]
    prev = 1
    for k, row_k in enumerate(lap):
        pivot = row_k[k]
        if not pivot:
            return 0
        for row in lap[k + 1:]:
            first = row[k]
            for j in range(k + 1, len(lap)):
                row[j] = (row[j] * pivot - first * row_k[j]) // prev
        prev = pivot
    return prev


def exact_result(g):
    """Full ExactResult with cross-checked phi and lambda when the tree oracle is cheap.

    The tree cross-check runs when n <= TREE_GUARD and the Kirchhoff count
    is at most TREE_COUNT_LIMIT; elsewhere ``tree_count`` is None.
    """
    phi_s, full_set = phi_exact_stars(g)
    lam, gamma, tree, cds = lambda_gamma_exact(g)
    tree_count = None
    if g.n <= TREE_GUARD and (count := kirchhoff_tree_count(g)) <= TREE_COUNT_LIMIT:
        ext = spanning_tree_extrema(g)
        if ext.max_full != phi_s:
            raise InvariantViolationError(
                f"oracle disagreement: trees say {ext.max_full}, stars say {phi_s}")
        if ext.max_leaves != lam:
            raise InvariantViolationError(
                f"oracle disagreement: trees say lambda = {ext.max_leaves}, "
                f"CDS search says {lam}")
        if ext.tree_count != count:
            raise InvariantViolationError(
                f"counted {ext.tree_count} trees, determinant says {count}")
        tree_count = ext.tree_count
    return ExactResult(phi=phi_s, lam=lam, gamma_c=gamma,
                       witness_tree=tree, witness_cds=cds,
                       witness_full_set=full_set, tree_count=tree_count)


def check_propositions(g, exact):
    """Per-inequality report for the degree bounds and the leaf/domination identities."""
    n = g.n
    dmax = g.max_degree()
    dmin = g.min_degree()
    phi, lam = exact.phi, exact.lam
    checks = {}

    def record(name, statement, value, passed, slack):
        checks[name] = {"statement": statement, "value": value, "passed": passed,
                        "slack": slack}

    lower = n / (dmax * (dmax - 1) + 1)
    record("phi_lower", f"phi >= n/(D(D-1)+1) = {lower:.4f}", phi,
           phi >= lower - 1e-9, phi - lower)
    if dmin >= 2:
        upper = (n - 2) / (dmin - 1)
        record("phi_upper", f"phi <= (n-2)/(d-1) = {upper:.4f}", phi,
               phi <= upper + 1e-9, upper - phi)
    record("leaf_domination_identity", "lambda = n - gamma_c", (lam, n - exact.gamma_c),
           lam == n - exact.gamma_c, 0)
    if dmax == dmin == 3:
        record("cubic_leaf_identity", "lambda = phi + 2", (lam, phi + 2),
               lam == phi + 2, lam - phi - 2)
    elif dmax == dmin >= 4:
        bound = (dmax - 2) * phi + 2
        record("leaf_lower_bound", f"lambda >= (r-2)*phi + 2 = {bound}", lam,
               lam >= bound, lam - bound)
    checks["all_pass"] = all(c["passed"] for c in checks.values())
    return checks


def construct_prism_torus(r, m):
    """K_{r-1} x C_m, the m-cycle of cliques; r-regular on (r-1)*m vertices."""
    if r < 3:
        raise InvalidInputError(f"need r >= 3, got {r}")
    if m < 3:
        raise InvalidInputError(f"need m >= 3, got {m}")
    return cartesian_product(complete_graph(r - 1), cycle_graph(m))


def prism_torus_witness(r, m):
    """A set of m-2 vertices, one per clique layer, whose star union is a forest."""
    k = r - 1
    return [j * k for j in range(m - 2)]


def construct_grid_torus(delta, m):
    """(K_s x K_s) x C_m with s = delta/2; delta-regular on s^2*m vertices."""
    if delta < 4 or delta % 2:
        raise InvalidInputError(f"need even delta >= 4, got {delta}")
    if m < 3:
        raise InvalidInputError(f"need m >= 3, got {m}")
    clique = complete_graph(delta // 2)
    return cartesian_product(cartesian_product(clique, clique), cycle_graph(m))
