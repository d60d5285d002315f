"""Conflict graphs of 1-page layouts and exact k-colorability decisions.

The conflict graph of a circular layout has one vertex per edge of K_{m,n}
(vertex index i*n + j for the edge joining black i to white j); two vertices
are adjacent iff the edges cross when drawn on a single page.  A layout
extends to a crossing-free k-page drawing iff its conflict graph is
k-colorable (colors = pages), so "no layout is k-colorable" certifies that
every k-page drawing of K_{m,n} has a crossing.  Adjacency comes from
``drawings.half_interleaving``, the one vectorized crossing kernel.

Colorability is decided by exhaustive DSATUR-ordered backtracking with two
sound symmetry reductions: the vertices of one clique are pre-colored
0, 1, 2, ... and new color classes are only introduced in first-use order.
The search passes its state down by value as bitmasks (the uncolored
vertices, and per color the vertices with a neighbour of that color), so a
child costs one OR and backtracking undoes nothing.  At desk scale (<= 91
vertices) this is exact, so no spectral or SDP lower bound machinery is
needed; a maximum clique, omega(g) <= chi(g), does the cheap pruning (a
sweep over the layout, or exact search for other graphs).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator, Mapping, Sequence

import numpy as np

from .drawings import BookDrawing, CircularLayout, half_interleaving
from .enumeration import layout_from_string, necklace_classes

DEFAULT_NODE_BUDGET = 10**9

COLORABLE = "colorable"
NOT_COLORABLE = "not_colorable"
BUDGET_EXCEEDED = "budget_exceeded"

PROVEN = "proven"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ConflictGraph:
    """Crossing graph on the m*n edges of K_{m,n} for one layout."""

    m: int
    n: int
    adj: tuple[int, ...]  # bitmask of neighbors per vertex
    layout: CircularLayout | None = field(default=None, compare=False)  # None if hand-built

    @property
    def vertex_count(self) -> int:
        return self.m * self.n

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.vertex_count):
            w = self.adj[u] >> (u + 1)
            base = u + 1
            while w:
                low = w & -w
                yield (u, base + low.bit_length() - 1)
                w ^= low

    def is_proper(self, colors: Sequence[int]) -> bool:
        return all(colors[u] != colors[v] for u, v in self.edges())


def conflict_graph(layout: CircularLayout) -> ConflictGraph:
    """Build the conflict graph of a layout through the crossing kernel."""
    m, n = layout.m, layout.n
    bpos = np.asarray(layout.black_positions, dtype=np.int64)
    wpos = np.asarray(layout.white_positions, dtype=np.int64)
    # vertex v = i*n + j; chord endpoints normalized to lo < hi
    x = np.repeat(bpos, n)
    y = np.tile(wpos, m)
    half = half_interleaving(np.minimum(x, y), np.maximum(x, y))
    # bit v of row u's little-endian bytes is entry (u, v)
    packed = np.packbits(half | half.T, axis=1, bitorder="little")
    return ConflictGraph(m, n, tuple(int.from_bytes(row.tobytes(), "little") for row in packed), layout)


# ---------------------------------------------------------------------------
# Cliques
# ---------------------------------------------------------------------------

def _crossing_chain(layout: CircularLayout) -> list[int]:
    """A largest set of pairwise-crossing chords (lo, hi): ordered by lo, both
    ends rise strictly and all straddle one spine cut p (lo <= p < hi), so per
    cut it is a longest strictly increasing run of hi over the chords sorted
    by (lo, -hi), the tie-break keeping chords with a shared left end apart."""
    n = layout.n
    chords = sorted(
        (min(x, y), -max(x, y), i * n + j)
        for i, x in enumerate(layout.black_positions)
        for j, y in enumerate(layout.white_positions)
    )
    best: list[int] = []
    for p in range(len(layout.seq)):
        tails: list[int] = []  # least hi ending a run of each length
        runs: list[list[int]] = [[]]  # runs[r + 1]: the vertices of that run
        for hi, v in [(-neg_hi, v) for lo, neg_hi, v in chords if lo <= p < -neg_hi]:
            r = bisect_left(tails, hi)
            if r == len(tails):
                tails.append(hi)
                runs.append(runs[r] + [v])
            else:
                tails[r] = hi
                runs[r + 1] = runs[r] + [v]
        best = max(best, runs[-1], key=len)
    return best


def _exact_max_clique(g: ConflictGraph) -> list[int]:
    best: list[int] = []
    adj = g.adj

    def expand(stack: list[int], cand: int) -> None:
        nonlocal best
        if len(stack) > len(best):
            best = stack.copy()
        while cand:
            if len(stack) + cand.bit_count() <= len(best):
                return
            low = cand & -cand
            v = low.bit_length() - 1
            stack.append(v)
            expand(stack, cand & adj[v])
            stack.pop()
            cand ^= low

    expand([], (1 << g.vertex_count) - 1)
    return best


def find_clique(g: ConflictGraph) -> list[int]:
    """A maximum clique of g, size omega(g) <= chi(g): the crossing-chain sweep
    over a conflict graph's layout, exact branch and bound without a layout."""
    if g.layout is None:
        return _exact_max_clique(g)
    return _crossing_chain(g.layout)


def clique_lower_bound(g: ConflictGraph) -> int:
    """omega(g), the size of a maximum clique; always <= chi(g)."""
    return len(find_clique(g))


# ---------------------------------------------------------------------------
# Exact k-colorability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColoringResult:
    """Outcome of one colorability search.

    ``status`` is one of COLORABLE (``assignment`` is a verified proper
    coloring), NOT_COLORABLE (search space exhausted) or BUDGET_EXCEEDED
    (never conflated with infeasibility).
    """

    status: str
    assignment: tuple[int, ...] | None
    nodes: int
    millis: float


class _Budget(Exception):
    pass


def is_k_colorable(g: ConflictGraph, k: int, budget: int = DEFAULT_NODE_BUDGET) -> ColoringResult:
    """Exhaustive DSATUR-ordered backtracking k-colorability decision.

    One clique is pre-colored 0,1,2,... and remaining color classes are
    introduced in first-use order; both reductions preserve completeness,
    so NOT_COLORABLE genuinely means no proper k-coloring exists.  Each node
    branches on an uncolored vertex seeing the most colors, then of highest
    degree, then of lowest index.  The search state is passed down by value
    as bitmasks, so a child ORs one adjacency mask in and nothing is undone.
    """
    if k < 1:
        raise ValueError("k must be positive")
    start = time.perf_counter()
    nvert = g.vertex_count
    if nvert == 0:
        return ColoringResult(COLORABLE, (), 0, _ms(start))

    clique = find_clique(g)
    if len(clique) > k:
        return ColoringResult(NOT_COLORABLE, None, 0, _ms(start))

    adj = g.adj
    degree = [mask.bit_count() for mask in adj]
    # vertices of equal degree, highest degree first
    tiers = [sum(1 << v for v in range(nvert) if degree[v] == d) for d in sorted(set(degree), reverse=True)]
    color = [-1] * nvert
    forbid = [0] * k
    for c, v in enumerate(clique):
        color[v] = c
        forbid[c] = adj[v]
    nodes = 0

    def extend(free: int, forbid: list[int], used: int) -> bool:
        """free: uncolored vertices; forbid[c]: vertices with a neighbour colored c."""
        nonlocal nodes
        if not free:
            return True
        sat = [free] + [0] * used  # sat[s]: free vertices that see at least s colors
        for c in range(used):
            seen = forbid[c] & free
            for s in range(c + 1, 0, -1):
                sat[s] |= sat[s - 1] & seen
        most = next(mask for mask in reversed(sat) if mask)
        pick = next(most & tier for tier in tiers if most & tier)
        low = pick & -pick
        v = low.bit_length() - 1
        for c in range(min(used + 1, k)):  # one fresh color at most
            if forbid[c] & low:
                continue
            nodes += 1
            if nodes > budget:
                raise _Budget
            color[v] = c
            child = forbid.copy()
            child[c] |= adj[v]
            if extend(free ^ low, child, max(used, c + 1)):
                return True
        return False

    try:
        ok = extend((1 << nvert) - 1 - sum(1 << v for v in clique), forbid, len(clique))
    except _Budget:
        return ColoringResult(BUDGET_EXCEEDED, None, nodes, _ms(start))
    if not ok:
        return ColoringResult(NOT_COLORABLE, None, nodes, _ms(start))
    witness = tuple(color)
    if not g.is_proper(witness):
        raise AssertionError("search returned an improper coloring; internal bug")
    return ColoringResult(COLORABLE, witness, nodes, _ms(start))


def _ms(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0


# ---------------------------------------------------------------------------
# DIMACS CNF export and a small DPLL checker
# ---------------------------------------------------------------------------


def export_cnf(g: ConflictGraph, k: int) -> str:
    """Decision CNF: satisfiable iff g is k-colorable.

    Variable of (vertex v, color c) is v*k + c + 1.  One at-least-one clause
    per vertex plus one binary conflict clause per adjacent pair per color;
    at-most-one constraints are unnecessary for the decision variant.
    """
    if k < 1:
        raise ValueError("k must be positive")
    nvert = g.vertex_count
    lines = [f"p cnf {nvert * k} {nvert + g.edge_count * k}"]
    for v in range(nvert):
        lines.append(" ".join(str(v * k + c + 1) for c in range(k)) + " 0")
    for u, v in g.edges():
        for c in range(k):
            lines.append(f"-{u * k + c + 1} -{v * k + c + 1} 0")
    return "\n".join(lines) + "\n"


def coloring_satisfies_cnf(cnf: str, assignment: Sequence[int], k: int) -> bool:
    """Evaluate a color assignment (as x_{v,c} = [color(v) == c]) on a CNF."""
    true_vars = {v * k + assignment[v] + 1 for v in range(len(assignment))}
    for clause in _parse_dimacs(cnf)[1]:
        if not any((lit > 0) == (abs(lit) in true_vars) for lit in clause):
            return False
    return True


def _parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    nvars = 0
    clauses: list[list[int]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header: {line!r}")
            nvars = int(parts[2])
            continue
        lits = [int(tok) for tok in line.split()]
        if lits and lits[-1] == 0:
            lits = lits[:-1]
        if lits:
            clauses.append(lits)
    return nvars, clauses


def solve_dimacs(text: str) -> dict[int, bool] | None:
    """Tiny DPLL (unit propagation + branching) for verification at desk scale.

    Returns a satisfying assignment or None.  Intended for the small
    colorability CNFs this package exports, not as a general SAT solver.
    """
    nvars, clauses = _parse_dimacs(text)
    assign: dict[int, bool] = {}

    def propagate(clauses: list[list[int]], assign: dict[int, bool]) -> list[list[int]] | None:
        changed = True
        while changed:
            changed = False
            next_clauses: list[list[int]] = []
            for clause in clauses:
                live: list[int] = []
                satisfied = False
                for lit in clause:
                    val = assign.get(abs(lit))
                    if val is None:
                        live.append(lit)
                    elif (lit > 0) == val:
                        satisfied = True
                        break
                if satisfied:
                    continue
                if not live:
                    return None
                if len(live) == 1:
                    lit = live[0]
                    assign[abs(lit)] = lit > 0
                    changed = True
                else:
                    next_clauses.append(live)
            clauses = next_clauses
        return clauses

    def search(clauses: list[list[int]], assign: dict[int, bool]) -> dict[int, bool] | None:
        reduced = propagate(clauses, assign)
        if reduced is None:
            return None
        if not reduced:
            return assign
        counts: dict[int, int] = {}
        for clause in reduced:
            for lit in clause:
                counts[abs(lit)] = counts.get(abs(lit), 0) + 1
        var = max(counts, key=lambda v: (counts[v], -v))
        for value in (True, False):
            trial = dict(assign)
            trial[var] = value
            result = search([list(c) for c in reduced], trial)
            if result is not None:
                return result
        return None

    result = search(clauses, assign)
    if result is None:
        return None
    for v in range(1, nvars + 1):
        result.setdefault(v, False)
    return result


# ---------------------------------------------------------------------------
# Whole-pipeline verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LayoutLog:
    canonical: str
    verdict: str
    nodes: int
    millis: float

    def to_dict(self) -> dict:
        return {
            "canonical_string": self.canonical,
            "verdict": self.verdict,
            "nodes": self.nodes,
            "millis": round(self.millis, 3),
        }


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of checking every layout of K_{m,n} at page count k.

    ``status``: PROVEN (every conflict graph uncolorable, hence every k-page
    drawing has a crossing), REFUTED (``witness`` is a crossing-free k-page
    drawing built from a colorable layout) or INCONCLUSIVE (some budget ran
    out before a decision).
    """

    m: int
    n: int
    k: int
    status: str
    logs: tuple[LayoutLog, ...]
    witness: BookDrawing | None = None
    unfinished: tuple[str, ...] = ()


def coloring_to_drawing(layout: CircularLayout, colors: Sequence[int], k: int) -> BookDrawing:
    """Interpret a proper conflict-graph coloring as a page assignment."""
    n = layout.n
    pages = {(i, j): colors[i * n + j] for i in range(layout.m) for j in range(n)}
    return BookDrawing(layout, k, pages)


def check_layout(canonical: str, k: int, budget: int = DEFAULT_NODE_BUDGET) -> tuple[LayoutLog, tuple[int, ...] | None]:
    """Colorability verdict for one canonical layout string."""
    layout = layout_from_string(canonical)
    result = is_k_colorable(conflict_graph(layout), k, budget)
    return LayoutLog(canonical, result.status, result.nodes, result.millis), result.assignment


def verify_positive_crossing(
    m: int,
    n: int,
    k: int,
    budget: int = DEFAULT_NODE_BUDGET,
    jobs: int = 1,
    completed: Mapping[str, LayoutLog] | None = None,
) -> PipelineResult:
    """Decide whether every k-page drawing of K_{m,n} has a crossing.

    Iterates all distinct circular layouts; PROVEN iff each conflict graph is
    uncolorable with k colors.  Every layout is checked first, then the first
    colorable one in canonical order REFUTES (its coloring, made in this run,
    is a page assignment with no crossing).
    ``completed`` maps canonical strings to prior logs so long runs can resume;
    only NOT_COLORABLE entries are final and reused, so COLORABLE and
    BUDGET_EXCEEDED layouts are checked again with this ``budget``.
    ``jobs`` must be at least 1; above 1 it fans layouts out to worker
    processes (results come back in canonical order either way).
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    layouts = [c.canonical for c in necklace_classes(m, n)]
    done = {s: log for s, log in (completed or {}).items() if log.verdict == NOT_COLORABLE}
    pending = [s for s in layouts if s not in done]

    pool = None
    if jobs > 1 and len(pending) > 1:
        from concurrent.futures import ProcessPoolExecutor  # lazy: a costly import

        pool = ProcessPoolExecutor(max_workers=jobs)
    witness = None
    with pool or nullcontext():
        for log, colors in (pool.map if pool else map)(check_layout, pending, repeat(k), repeat(budget)):
            done[log.canonical] = log
            if witness is None and colors is not None:
                witness = coloring_to_drawing(layout_from_string(log.canonical), colors, k)
    logs = tuple(done[s] for s in layouts)
    if witness is not None:
        return PipelineResult(m, n, k, REFUTED, logs, witness=witness)
    unfinished = tuple(log.canonical for log in logs if log.verdict == BUDGET_EXCEEDED)
    if unfinished:
        return PipelineResult(m, n, k, INCONCLUSIVE, logs, unfinished=unfinished)
    return PipelineResult(m, n, k, PROVEN, logs)
