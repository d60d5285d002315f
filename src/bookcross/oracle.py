"""Brute-force ground truth for tiny instances.

Minimizes crossings over every distinct circular layout and every page
assignment.  Restricting layouts to dihedral orbit representatives is sound
because crossing counts are invariant under rotations and reflections of the
circle.  Page assignments are explored by branch and bound over edges in a
fixed order (most-crossing edges first), with page symmetry broken by letting
each new page be introduced by the first edge placed on it.  A branch is
pruned as soon as its crossings so far plus a look-ahead lower bound reach the
incumbent: every edge not yet placed is charged the fewest placed edges it
would cross on any one page, kept up to date as edges are placed and removed.
Incumbents come from the explicit constructions, so they are genuine
drawings, not formula values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

from .coloring import conflict_graph
from .constructions import balanced_embedding, balanced_parameters, block_cyclic, blowup, riskin_drawing
from .drawings import CircularLayout, _check_ints, count_crossings
from .enumeration import enumerate_layouts


class OracleLimitError(RuntimeError):
    """Instance or search exceeds the configured oracle limits."""


@dataclass(frozen=True)
class OracleLimits:
    max_vertices: int = 10  # m + n
    max_pages: int = 3
    node_budget: int = 100_000_000

    def __post_init__(self):
        _check_ints(0, **{f.name: getattr(self, f.name) for f in fields(self)})


DEFAULT_LIMITS = OracleLimits()


@dataclass(frozen=True)
class OracleRun:
    m: int
    n: int
    k: int
    value: int
    nodes: int
    millis: float

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "value": self.value,
            "nodes": self.nodes,
            "millis": round(self.millis, 3),
        }


def _construction_incumbent(m: int, n: int, k: int) -> int:
    """Fewest crossings among the explicit constructions (counted, not assumed).

    Swapping the two colour classes keeps every chord and every page, so the
    blow-up of K_{k+1,m} counts for K_{m,k+1} as built.
    """
    candidates = [block_cyclic(m, n, k)]
    if k == 1:
        candidates.append(riskin_drawing(m, n))
    for mm, nn in ((m, n), (n, m)):
        if mm == k + 1:
            s, t = balanced_parameters(k)
            if nn >= s * t:
                candidates.append(blowup(balanced_embedding(k), nn))
    return min(count_crossings(d).total for d in candidates)


def _layout_minimum(layout: CircularLayout, k: int, best: int, budget: int) -> tuple[int, int]:
    """Min crossings over page assignments strictly better than ``best``.

    Returns (new best, nodes used).  Never reports a value >= best, so the
    caller keeps its incumbent unless a strictly better assignment exists.

    A node is pruned when its crossings so far plus ``rest`` reach ``best``.
    ``rest`` sums, over the edges not yet placed, the fewest placed edges that
    cross the edge on any one page: placed edges never move, so wherever an
    unplaced edge lands it crosses at least that many of them, and crossings
    among unplaced edges are not counted at all.  The bound therefore never
    exceeds the best completion and the search stays exact.  Empty pages cost
    0 and stay in the minimum, so page symmetry breaking does not affect it.

    ``low[s]`` stays equal to ``min(cost[s])``.  Placing an edge on page p
    raises ``cost[s][p]`` by one for each later edge s it crosses, and the
    minimum rises, by one, only if page p alone held it: one ``min`` then
    decides.  Undoing lowers ``cost[s][p]``, and the minimum falls back
    exactly when that entry drops below ``low[s]``.
    """
    graph = conflict_graph(layout)
    cross_of = graph.adj  # vertex i*n + j is edge (i, j)
    nedges = len(cross_of)
    order = sorted(range(nedges), key=lambda a: (-cross_of[a].bit_count(), a))
    rank = sorted(range(nedges), key=order.__getitem__)  # rank[order[t]] == t
    # edge t of the search is vertex order[t]; later[t] lists the edges after
    # t in search order that cross it, the only ones whose cost t can change
    later = [[] for _ in range(nedges)]
    for u, v in graph.edges():
        a, b = rank[u], rank[v]
        if a > b:
            a, b = b, a
        later[a].append(b)
    cost = [[0] * k for _ in range(nedges)]  # cost[t][p]: placed edges on page p crossing t
    low = [0] * nedges  # low[t] == min(cost[t])
    rest = 0  # sum of low[t] over the edges t not yet placed
    nodes = 0

    def walk(t: int, used: int, partial: int) -> None:
        nonlocal best, nodes, rest
        if partial + rest >= best:
            return
        if t == nedges:
            best = partial
            return
        here = cost[t]
        crossed = later[t]
        entry = rest
        others = rest - low[t]
        for p in range(min(used + 1, k)):
            nodes += 1
            if nodes > budget:
                raise OracleLimitError("oracle node budget exhausted")
            add = here[p]
            if partial + add + others < best:
                rest = others
                for s in crossed:
                    c = cost[s]
                    was = c[p]
                    c[p] = was + 1
                    if was == low[s] and min(c) > was:
                        low[s] = was + 1
                        rest += 1
                walk(t + 1, max(used, p + 1), partial + add)
                for s in crossed:
                    c = cost[s]
                    now = c[p] - 1
                    c[p] = now
                    if now < low[s]:
                        low[s] = now
                rest = entry
        return

    walk(0, 0, 0)
    return best, nodes


def brute_force_run(m: int, n: int, k: int, limits: OracleLimits = DEFAULT_LIMITS) -> OracleRun:
    """Exact minimum crossings over all k-page drawings of K_{m,n}, with stats."""
    _check_ints(m=m, n=n, k=k)
    if m + n > limits.max_vertices:
        raise OracleLimitError(
            f"m+n = {m + n} exceeds the oracle limit of {limits.max_vertices} vertices"
        )
    if k > limits.max_pages:
        raise OracleLimitError(f"k = {k} exceeds the oracle limit of {limits.max_pages} pages")
    start = time.perf_counter()
    best = _construction_incumbent(m, n, k)
    nodes = 0
    budget = limits.node_budget
    if best > 0:
        for layout in enumerate_layouts(m, n):
            best, used = _layout_minimum(layout, k, best, budget - nodes)
            nodes += used
            if best == 0:
                break
    millis = (time.perf_counter() - start) * 1000.0
    return OracleRun(m, n, k, best, nodes, millis)


def brute_force_nu(m: int, n: int, k: int, limits: OracleLimits = DEFAULT_LIMITS) -> int:
    """Exact k-page crossing number of K_{m,n} on a tiny instance."""
    return brute_force_run(m, n, k, limits).value


def brute_force_pagenumber(m: int, n: int, limits: OracleLimits = DEFAULT_LIMITS) -> int:
    """Smallest k with a crossing-free k-page drawing, within limits."""
    for k in range(1, limits.max_pages + 1):
        if brute_force_nu(m, n, k, limits) == 0:
            return k
    raise OracleLimitError(
        f"pagenumber of K_{{{m},{n}}} exceeds the oracle limit of {limits.max_pages} pages"
    )
