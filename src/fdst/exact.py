"""Exact brute-force oracles for full-degree, max-leaf, and connected-domination
numbers on small graphs, plus the extremal product constructions.

Two independent routes are kept for the full-degree number: exhaustive
spanning-tree enumeration (deletion/contraction) and a branch-and-bound
search over vertex sets whose star union is acyclic. They must agree
wherever both run; that agreement is the primary anti-bug defense.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InvalidInputError, InvariantViolationError, SizeGuardError
from .graphs import _leaf_count, graph_from_edges, is_connected
from .unionfind import UnionFind


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
    phi: int
    lam: int
    gamma_c: int
    witness_tree: list
    witness_cds: list
    witness_full_set: list


def _require_connected(g):
    if not is_connected(g):
        raise InvalidInputError("oracle requires a connected graph")


def spanning_tree_extrema(g, max_vertices=16):
    """Enumerate every spanning tree once, tracking full-degree and leaf maxima.

    Deletion/contraction on the running multigraph: the branch that keeps the
    pivot edge contracts it, the branch that drops it recurses only when the
    remainder is still connected, so each recursion leaf is a distinct tree.
    """
    _require_connected(g)
    n = g.n
    if n > max_vertices:
        raise SizeGuardError(f"tree enumeration guarded at n <= {max_vertices}, got {n}")
    if n == 1:
        return TreeExtrema(1, 1, [], 0, [])
    deg = [g.degree(v) for v in range(n)]
    deg_t = [0] * n
    chosen = []
    state = {"full": 0, "leaves": 0, "count": 0,
             "best_full": -1, "best_full_tree": None,
             "best_leaves": -1, "best_leaves_tree": None}
    edges0 = [(u, v, u, v) for u, v in g.edges()]

    def inc(v):
        old = deg_t[v]
        deg_t[v] = old + 1
        if old == 0:
            state["leaves"] += 1
        elif old == 1:
            state["leaves"] -= 1
        if deg_t[v] == deg[v]:
            state["full"] += 1

    def dec(v):
        if deg_t[v] == deg[v]:
            state["full"] -= 1
        deg_t[v] -= 1
        if deg_t[v] == 0:
            state["leaves"] -= 1
        elif deg_t[v] == 1:
            state["leaves"] += 1

    def rec(edges, labels):
        if len(labels) == 1:
            state["count"] += 1
            if state["full"] > state["best_full"]:
                state["best_full"] = state["full"]
                state["best_full_tree"] = list(chosen)
            if state["leaves"] > state["best_leaves"]:
                state["best_leaves"] = state["leaves"]
                state["best_leaves_tree"] = list(chosen)
            return
        u, v, ou, ov = edges[0]
        # include the pivot: contract v into u
        chosen.append((ou, ov) if ou < ov else (ov, ou))
        inc(ou)
        inc(ov)
        contracted = []
        for i in range(1, len(edges)):
            a, b, oa, ob = edges[i]
            if a == v:
                a = u
            if b == v:
                b = u
            if a != b:
                contracted.append((a, b, oa, ob))
        labels.discard(v)
        rec(contracted, labels)
        labels.add(v)
        dec(ou)
        dec(ov)
        chosen.pop()
        # exclude the pivot: allowed only if the rest stays connected
        rest = edges[1:]
        adj = {}
        for a, b, _, _ in rest:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        seen = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for w in adj.get(x, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == len(labels):
            rec(rest, labels)

    rec(edges0, set(range(n)))
    return TreeExtrema(
        tree_count=state["count"],
        max_full=state["best_full"],
        max_full_tree=sorted(state["best_full_tree"]),
        max_leaves=state["best_leaves"],
        max_leaves_tree=sorted(state["best_leaves_tree"]),
    )


def phi_exact_trees(g, max_vertices=12):
    """Maximum full-degree count over all spanning trees, with a witness tree."""
    ext = spanning_tree_extrema(g, max_vertices=max_vertices)
    return ext.max_full, ext.max_full_tree


def lambda_exact_trees(g, max_vertices=12):
    """Maximum leaf count over all spanning trees, with a witness tree."""
    ext = spanning_tree_extrema(g, max_vertices=max_vertices)
    return ext.max_leaves, ext.max_leaves_tree


def star_union_is_forest(g, vertices):
    """Whether the union of the closed stars of ``vertices`` is acyclic in g."""
    uf = UnionFind(g.n)
    seen = set()
    for v in vertices:
        for w in g.adjacency[v]:
            e = (v, w) if v < w else (w, v)
            if e in seen:
                continue
            seen.add(e)
            if not uf.union(*e):
                return False
    return True


def phi_exact_stars(g, max_vertices=24):
    """Full-degree number via branch-and-bound over acyclic star unions.

    A vertex set is simultaneously realizable as full-degree vertices of one
    spanning tree exactly when the union of its stars is a forest: a forest
    extends to a spanning tree that adds no edge at a saturated vertex, and
    conversely the stars of full-degree vertices all lie inside the tree.
    """
    _require_connected(g)
    n = g.n
    if n > max_vertices:
        raise SizeGuardError(f"star search guarded at n <= {max_vertices}, got {n}")
    delta = g.min_degree()
    hard_ub = (n - 2) // (delta - 1) if delta >= 2 else n
    best = [0, []]
    chosen = []
    edge_set = set()

    def rec(idx, uf, count):
        if count > best[0]:
            best[0] = count
            best[1] = list(chosen)
        if best[0] >= hard_ub:
            return True  # provably optimal, cut everything
        if idx == n or count + (n - idx) <= best[0]:
            return False
        new_edges = []
        for w in g.adjacency[idx]:
            e = (idx, w) if idx < w else (w, idx)
            if e not in edge_set:
                new_edges.append(e)
        uf2 = uf.copy()
        feasible = all(uf2.union(a, b) for a, b in new_edges)
        if feasible:
            edge_set.update(new_edges)
            chosen.append(idx)
            done = rec(idx + 1, uf2, count + 1)
            chosen.pop()
            edge_set.difference_update(new_edges)
            if done:
                return True
        return rec(idx + 1, uf, count)

    rec(0, UnionFind(n), 0)
    return best[0], sorted(best[1])


def _neighborhood_masks(g):
    closed = []
    open_ = []
    for v in range(g.n):
        m = 0
        for w in g.adjacency[v]:
            m |= 1 << w
        open_.append(m)
        closed.append(m | (1 << v))
    return closed, open_


def lambda_gamma_exact(g, max_vertices=20):
    """Minimum connected dominating set by increasing-size subset search.

    Returns (lambda, gamma_c, witness_tree, witness_cds) using the exchange
    between spanning-tree leaves and connected dominating sets: the
    non-leaves of a tree dominate, and a CDS pins everything else as leaves.
    """
    _require_connected(g)
    n = g.n
    if n > max_vertices:
        raise SizeGuardError(f"CDS search guarded at n <= {max_vertices}, got {n}")
    if n < 3:
        raise InvalidInputError("leaf/domination exchange needs n >= 3")
    closed, open_ = _neighborhood_masks(g)
    full = (1 << n) - 1
    delta_max = g.max_degree()
    cds = None
    for k in range(max(1, math.ceil(n / (delta_max + 1))), n + 1):
        for subset in combinations(range(n), k):
            cover = 0
            for v in subset:
                cover |= closed[v]
            if cover != full:
                continue
            # connectivity of the induced subgraph, by mask expansion
            smask = 0
            for v in subset:
                smask |= 1 << v
            frontier = 1 << subset[0]
            reach = frontier
            while frontier:
                nxt = 0
                f = frontier
                while f:
                    low = f & -f
                    nxt |= open_[low.bit_length() - 1]
                    f ^= low
                nxt &= smask & ~reach
                reach |= nxt
                frontier = nxt
            if reach == smask:
                cds = list(subset)
                break
        if cds is not None:
            break
    gamma = len(cds)
    lam = n - gamma
    tree = _tree_with_pendants(g, cds)
    leaves = _leaf_count(g.n, tree)
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


def exact_result(g, tree_guard=12, star_guard=24, cds_guard=20,
                 cross_check_tree_limit=500_000):
    """Full ExactResult with cross-checked phi and lambda when the tree oracle is cheap.

    The enumeration cross-check runs when n fits the tree guard and the
    Kirchhoff count stays under ``cross_check_tree_limit``; enumerating a
    dense graph's millions of trees adds nothing over the star search.
    """
    phi_s, full_set = phi_exact_stars(g, max_vertices=star_guard)
    lam, gamma, tree, cds = lambda_gamma_exact(g, max_vertices=cds_guard)
    if g.n <= tree_guard and (count := kirchhoff_tree_count(g)) <= cross_check_tree_limit:
        ext = spanning_tree_extrema(g, max_vertices=tree_guard)
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
    return ExactResult(phi=phi_s, lam=lam, gamma_c=gamma,
                       witness_tree=tree, witness_cds=cds,
                       witness_full_set=full_set)


def _is_regular(g):
    degs = {g.degree(v) for v in range(g.n)}
    return len(degs) == 1


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
    if _is_regular(g):
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
