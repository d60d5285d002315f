"""Brute-force ground truth for tiny instances.

Minimizes crossings over every distinct circular layout and every page
assignment.  Restricting layouts to dihedral orbit representatives is sound
because crossing counts are invariant under rotations and reflections of the
circle; this is the oracle's one non-trivial optimization.  Page assignments
are explored by branch and bound over edges in a fixed order (most-crossing
edges first), pruning as soon as the partial count reaches the incumbent,
with page symmetry broken by letting each new page be introduced by the first
edge placed on it.  Incumbents come from the explicit constructions, so they
are genuine drawings, not formula values.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, fields

from .coloring import conflict_graph
from .constructions import balanced_embedding, balanced_parameters, block_cyclic, blowup, riskin_drawing
from .drawings import CircularLayout, count_crossings
from .enumeration import enumerate_layouts


class OracleLimitError(RuntimeError):
    """Instance or search exceeds the configured oracle limits."""


@dataclass(frozen=True)
class OracleLimits:
    max_vertices: int = 10  # m + n
    max_pages: int = 3
    node_budget: int = 100_000_000

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 0:
                raise ValueError(f"{f.name} must be non-negative, got {value}")


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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
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
    """
    cross_of = conflict_graph(layout).adj  # vertex i*n + j is edge (i, j)
    nedges = len(cross_of)
    order = sorted(range(nedges), key=lambda a: (-cross_of[a].bit_count(), a))
    # edge t of the search is vertex order[t]; page masks keep vertex bits
    masks = [cross_of[v] for v in order]
    bits = [1 << v for v in order]

    page_bits = [0] * k
    nodes = 0

    def walk(t: int, used: int, partial: int) -> None:
        nonlocal best, nodes
        if partial >= best:
            return
        if t == nedges:
            best = partial
            return
        mask = masks[t]
        bit = bits[t]
        for p in range(min(used + 1, k)):
            nodes += 1
            if nodes > budget:
                raise OracleLimitError("oracle node budget exhausted")
            add = (mask & page_bits[p]).bit_count()
            if partial + add < best:
                page_bits[p] |= bit
                walk(t + 1, max(used, p + 1), partial + add)
                page_bits[p] &= ~bit
        return

    walk(0, 0, 0)
    return best, nodes


def brute_force_run(m: int, n: int, k: int, limits: OracleLimits = DEFAULT_LIMITS) -> OracleRun:
    """Exact minimum crossings over all k-page drawings of K_{m,n}, with stats."""
    if m < 1 or n < 1 or k < 1:
        raise ValueError("m, n, k must be positive")
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
