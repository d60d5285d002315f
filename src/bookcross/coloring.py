"""Conflict graphs of 1-page layouts and exact k-colorability decisions.

The conflict graph of a circular layout has one vertex per edge of K_{m,n}
(vertex index i*n + j for the edge joining black i to white j); two vertices
are adjacent iff the edges cross when drawn on a single page.  A layout
extends to a crossing-free k-page drawing iff its conflict graph is
k-colorable (colors = pages), so "no layout is k-colorable" certifies that
every k-page drawing of K_{m,n} has a crossing.  ``check_layout`` gives
``conflict_graph`` the canonical 0/1 word, which is all the clique sweep
reads.  The ``CircularLayout`` and its adjacency (one prefix-XOR table of
Python-int masks over the spine) are built on first read of ``layout`` or
``adj``: a layout that the sweep settles builds neither, and one that it
leaves open builds each once.

Colorability is decided by exhaustive DSATUR-ordered backtracking with two
sound symmetry reductions: the vertices of one clique are pre-colored
0, 1, 2, ... and new color classes are only introduced in first-use order.
The search passes its state down by value as bitmasks (the uncolored
vertices, per color the vertices with a neighbour of that color, and per
saturation level the uncolored vertices that see that many colors), so
backtracking undoes nothing.  The levels are built once, from the clique; a
child moves its vertex's newly constrained neighbours up one level, O(k)
mask operations, and a child in which some vertex would see all k colors is
counted as a node without being entered.  At desk scale (<= 91
vertices) this is exact, so no spectral or SDP lower bound machinery is
needed; a maximum clique, omega(g) <= chi(g), does the cheap pruning (a
sweep over the layout, or exact search for other graphs).

The sweep reads only the layout's 0/1 word.  The chords that pairwise cross
across a spine cut are a common subsequence of the word left of the cut and
the colour-flipped word right of it, so each cut's clique size is one
bit-parallel LCS on Python ints (Allison and Dix, IPL 23, 1986; Hyyro,
2004).  Deciding at k, the sweep skips each cut whose size bound is at most
k and stops at the first above k: that layout is not colorable, with no
clique built.  The graph keeps the cut sizes measured, so the full sweep of
a layout left open measures only the cuts the decision skipped: each layout
is swept once.  A patience sort at the first cut of largest size then gives
the clique a sort at every cut returns; DSATUR pre-colors it.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, repeat
from typing import Iterator, Mapping, Sequence

from .drawings import BookDrawing, CircularLayout, _check_ints
from .enumeration import layout_from_string, necklace_classes

DEFAULT_NODE_BUDGET = 10**9

COLORABLE = "colorable"
NOT_COLORABLE = "not_colorable"
BUDGET_EXCEEDED = "budget_exceeded"

PROVEN = "proven"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


class ConflictGraph:
    """Crossing graph on the m*n edges of K_{m,n}, with ``adj`` the bitmask of
    neighbours per vertex: given by hand, or built from ``layout`` on first
    read.  ``conflict_graph`` can give it the layout's 0/1 word instead, and
    then ``layout`` too is built on first read.  The clique sweep reads only
    the word, and keeps on the graph each cut size it measures: a layout is
    built only for a graph that the decision at k leaves open, and
    ``find_clique`` finishes that sweep instead of sweeping again.  Equality
    and hashing follow (m, n, adj); the layout is left out."""

    def __init__(self, m: int, n: int, adj: tuple[int, ...] | None = None, layout: CircularLayout | None = None):
        self.m = m
        self.n = n
        self._source: CircularLayout | str | None = layout  # a 0/1 word if given one by conflict_graph
        self._cuts: dict[int, int] = {}  # spine cut -> its clique size, as far as the sweep measured
        if adj is not None:
            self.adj = adj

    @cached_property
    def layout(self) -> CircularLayout | None:
        """None if hand-built."""
        source = self._source
        return layout_from_string(source) if isinstance(source, str) else source

    @cached_property
    def _word(self) -> str | None:
        """The layout's 0/1 word (black '1'); set by conflict_graph if given one."""
        return None if self.layout is None else self.layout.to_bitstring()

    @cached_property
    def adj(self) -> tuple[int, ...]:
        return _adjacency(self.layout)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConflictGraph):
            return NotImplemented
        return (self.m, self.n, self.adj) == (other.m, other.n, other.adj)

    def __hash__(self) -> int:
        return hash((self.m, self.n, self.adj))

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


def conflict_graph(layout: CircularLayout | str) -> ConflictGraph:
    """The conflict graph of a layout, or of its 0/1 word (black '1',
    vertices numbered clockwise as ``layout_from_string`` numbers them).  The
    clique sweep reads only the word; the layout of a word, and the
    adjacency (from the prefix-XOR table), are built on first read of
    ``layout`` or ``adj``.  So a layout that the sweep settles builds
    neither, and one that it leaves open builds each once and is swept once:
    the graph keeps the cut sizes that the decision at k measured."""
    if isinstance(layout, str):
        m = layout.count("1")
        n = len(layout) - m
        if m and n and layout.count("0") == n:
            g = ConflictGraph(m, n)
            g._source = g._word = layout  # the sweep reads _word once per layout: skip its descriptor
            return g
        layout = layout_from_string(layout)  # raises its ValueError
    return ConflictGraph(layout.m, layout.n, layout=layout)


def _adjacency(layout: CircularLayout) -> tuple[int, ...]:
    """Neighbour bitmask per vertex.  For the chord with ends x and y,
    ``prefix[x] ^ prefix[y]`` holds the chords with exactly one end at a
    position from min(x, y) up to but not including max(x, y).  Less the
    chords that share an end with it (every chord at min(x, y) among them),
    these are the chords it crosses, by ``edges_cross``'s rule."""
    m, n = layout.m, layout.n
    row = (1 << n) - 1  # the chords of black 0
    col = sum(1 << (i * n) for i in range(m))  # the chords of white 0
    prefix = [0]  # prefix[p]: XOR of the chord masks of the vertices at positions below p
    for c, i in layout.seq:
        prefix.append(prefix[-1] ^ (row << (i * n) if c == "b" else col << i))
    return tuple(
        (prefix[x] ^ prefix[y]) & ~(row << (i * n) | col << j)  # vertex v = i*n + j
        for i, x in enumerate(layout.black_positions)
        for j, y in enumerate(layout.white_positions)
    )


# ---------------------------------------------------------------------------
# Cliques
# ---------------------------------------------------------------------------

def _lcs_length(short: str, match: Mapping[str, int], width: int) -> int:
    """Length of a longest common subsequence of ``short`` and a word of
    ``width`` letters, given by ``match[c]``: bit i is set iff letter i of the
    word is c.  Bits above ``width`` are ignored.

    The bit-vector recurrence of Allison and Dix (IPL 23, 1986) in Hyyro's
    form (2004): v starts as ``width`` ones, each letter of ``short`` takes
    one add, one subtract and three logic operations, and v ends with one
    zero per letter of the common subsequence.  Carries run only upward and
    u is a subset of v, so bits above ``width`` never reach the bits below."""
    v = full = (1 << width) - 1
    for c in short:
        u = v & match[c]
        v = (v + u) | (v - u)
    return width - (v & full).bit_count()


def _clique_sweep(word: str, k: int | None = None, cuts: dict[int, int] | None = None) -> tuple[int, int]:
    """The size of a largest set of pairwise-crossing chords of a layout's
    0/1 word (black '1'), and the first spine cut p that such a set
    straddles (lo <= p < hi), or -1 if no chord.  Given k, it stops at the
    first cut whose set exceeds k; (k, -1) if none.  ``cuts`` maps each cut
    measured so far to its size: the sweep reads it instead of measuring a
    cut again, and adds each cut it measures.

    t pairwise-crossing chords that straddle p are exactly a common
    subsequence of length t of the left word w[0..p] and the colour-flipped
    right word flip(w[p+1..]) (left ends in order against right ends in
    order, each chord joining a black to a white).  So each cut costs one
    bit-parallel LCS, with the longer side as the bit vector.

    Such a set has distinct left ends in 0..p and distinct right ends above
    p.  With bl blacks and wl whites in 0..p, it is thus at most
    min(bl, n - wl) + min(wl, m - bl) large, and a cut whose bound is at
    most the best size so far (k at first, if given) is skipped."""
    size = len(word)
    m = word.count("1")
    n = size - m
    black = int(word[::-1] or "0", 2)  # bit p: position p is black
    white = black ^ ((1 << size) - 1)
    whole = {"1": white, "0": black}  # per letter, the positions of the other colour
    if cuts is None:
        cuts = {}
    best = 0 if k is None else k
    bl = wl = 0
    cut = -1
    for p, c in enumerate(word):
        if c == "1":
            bl += 1
        else:
            wl += 1
        # min(bl, n - wl) + min(wl, m - bl), spelled out: it runs at every cut
        if (bl if bl < n - wl else n - wl) + (wl if wl < m - bl else m - bl) <= best:
            continue
        length = cuts.get(p)
        if length is None:
            left = p + 1
            if 2 * left < size:  # the right word is the bit vector
                length = _lcs_length(word[:left], {"1": white >> left, "0": black >> left}, size - left)
            else:
                length = _lcs_length(word[left:], whole, left)
            cuts[p] = length
        if length > best:
            best, cut = length, p
            if k is not None:
                break
    return best, cut


def _crossing_chain(layout: CircularLayout, cuts: dict[int, int] | None = None) -> list[int]:
    """A largest set of pairwise-crossing chords (lo, hi): ordered by lo, both
    ends rise strictly and all straddle one spine cut p (lo <= p < hi), so per
    cut it is a longest strictly increasing run of hi over the chords in
    (lo, -hi) order, the tie-break keeping chords with a shared left end
    apart.  The first cut that reaches the maximum gives the run.

    ``_clique_sweep`` finds that cut and the run's length, reusing the cut
    sizes in ``cuts``; the run itself, back-pointers and all, comes from one
    patience sort over the chords that straddle it in (lo, -hi) order, so it
    is the run a sort at every cut would return."""
    m, n, seq = layout.m, layout.n, layout.seq
    word = layout.to_bitstring()
    best, cut = _clique_sweep(word, cuts=cuts)
    size = len(word)
    part = [i * n if c == "b" else i for c, i in seq]  # a chord's vertex i*n + j is the sum at its ends
    # per colour, (hi, part[hi]) over the other colour's positions above the cut, hi descending
    opposite: dict[str, list[tuple[int, int]]] = {"1": [], "0": []}
    for hi in range(size - 1, cut, -1):
        opposite["0" if word[hi] == "1" else "1"].append((hi, part[hi]))
    tails = [size] * best  # least hi ending a run of each length; size ends none
    ends = [-1] * (best + 1)  # ends[r + 1]: the vertex with hi tails[r]
    prev = [-1] * (m * n)  # prev[v]: the vertex before v in its run
    for lo in range(cut + 1):
        base = part[lo]
        for hi, v in opposite[word[lo]]:
            v += base
            r = bisect_left(tails, hi)
            prev[v] = ends[r]
            tails[r] = hi
            ends[r + 1] = v
    chain: list[int] = []
    v = ends[-1]
    while v >= 0:
        chain.append(v)
        v = prev[v]
    chain.reverse()
    return chain


def _exact_max_clique(g: ConflictGraph) -> list[int]:
    """Branch and bound on the lowest candidate first, with an explicit stack
    so that a clique of any size stays within Python's recursion limit."""
    best: list[int] = []
    adj = g.adj
    clique: list[int] = []
    cands = [(1 << g.vertex_count) - 1]  # cands[d]: untried extensions of clique[:d]
    while cands:
        cand = cands[-1]
        if cand and len(clique) + cand.bit_count() > len(best):
            low = cand & -cand
            v = low.bit_length() - 1
            cands[-1] = cand ^ low
            clique.append(v)
            if len(clique) > len(best):
                best = clique.copy()
            cands.append(cand & adj[v])
        else:
            cands.pop()
            if clique:
                clique.pop()
    return best


def find_clique(g: ConflictGraph) -> list[int]:
    """A maximum clique of g, size omega(g) <= chi(g): the crossing-chain sweep
    over a conflict graph's layout (finishing the sweep of a decision at k
    on g), exact branch and bound without a layout."""
    if g.layout is None:
        return _exact_max_clique(g)
    return _crossing_chain(g.layout, g._cuts)


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

    On a layout's graph the sweep decides first if some cut's clique exceeds
    k; the clique itself is built only if none does.  One clique is
    pre-colored 0,1,2,... and remaining color classes are introduced in
    first-use order; both reductions preserve completeness, so
    NOT_COLORABLE genuinely means no proper k-coloring exists.  Each node
    branches on an uncolored vertex seeing the most colors, then of highest
    degree, then of lowest index.  The search state is passed down by value
    as bitmasks, so nothing is undone: per color the vertices with a
    neighbour of that color, and per saturation level s the uncolored
    vertices that see exactly s colors.  The levels are built once from the
    clique; coloring v with c moves v's uncolored neighbours not yet next to
    c up one level, top level first.  A child in which some vertex would see
    all k colors is counted as a node but not entered: its branching vertex
    would have no color to try.
    """
    # verify_positive_crossing checks k and budget once per run, then calls
    # this once per layout through check_layout (the names perfbench traces):
    # plain ints in range skip the two _check_ints calls
    if type(k) is not int or type(budget) is not int or k < 1 or budget < 0:
        _check_ints(k=k)
        _check_ints(0, budget=budget)
    start = time.perf_counter()
    nvert = g.vertex_count
    if nvert == 0:
        return ColoringResult(COLORABLE, (), 0, _ms(start))

    if g._word is not None and _clique_sweep(g._word, k, g._cuts)[0] > k:
        return ColoringResult(NOT_COLORABLE, None, 0, _ms(start))  # no clique built
    clique = find_clique(g)
    if len(clique) > k:
        return ColoringResult(NOT_COLORABLE, None, 0, _ms(start))
    k = min(k, nvert)  # no search uses more colours than there are vertices

    adj = g.adj
    by_degree: dict[int, int] = {}  # degree -> its vertices
    for v, mask in enumerate(adj):
        d = mask.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    tiers = [by_degree[d] for d in sorted(by_degree, reverse=True)]  # highest degree first
    color = [-1] * nvert
    forbid = [0] * k
    for c, v in enumerate(clique):
        color[v] = c
        forbid[c] = adj[v]
    free = (1 << nvert) - 1 - sum(1 << v for v in clique)
    level = [free] + [0] * k
    for c in range(len(clique)):
        for s in range(c, -1, -1):
            moved = level[s] & forbid[c]
            level[s] ^= moved
            level[s + 1] |= moved
    nodes = 0

    def extend(free: int, forbid: list[int], level: list[int], used: int) -> bool:
        """free: uncolored vertices; forbid[c]: vertices with a neighbour
        colored c; level[s]: the free vertices that see exactly s colors."""
        nonlocal nodes
        if not free:
            return True
        top = k
        while not level[top]:
            top -= 1
        most = level[top]
        for tier in tiers:
            pick = most & tier
            if pick:
                break
        low = pick & -pick
        v = low.bit_length() - 1
        near = adj[v] & (free ^ low)
        for c in range(min(used + 1, k)):  # one fresh color at most
            if forbid[c] & low:
                continue
            nodes += 1
            if nodes > budget:
                raise _Budget
            new = near & ~forbid[c]  # the free neighbours that see c for the first time
            if new & level[k - 1]:
                continue  # one of them would see all k colors
            color[v] = c
            child = forbid.copy()
            child[c] |= adj[v]
            raised = level.copy()
            raised[top] ^= low
            s = top  # no free vertex sees more than top colors
            while new:
                moved = raised[s] & new
                if moved:
                    raised[s] ^= moved
                    raised[s + 1] |= moved
                    new ^= moved
                s -= 1
            if extend(free ^ low, child, raised, max(used, c + 1)):
                return True
        return False

    try:
        ok = extend(free, forbid, level, len(clique))
    except _Budget:
        return ColoringResult(BUDGET_EXCEEDED, None, nodes, _ms(start))
    except RecursionError as exc:  # one level per vertex colored
        raise ValueError(f"a colouring search over {nvert} vertices is deeper than Python's recursion limit") from exc
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
    _check_ints(k=k)
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

    def search(clauses: list[list[int]], true: set[int]) -> set[int] | None:
        """Grow ``true``, the literals set so far (a set of the caller's that
        this call may add to), to a model of ``clauses``, or return None."""
        false = {-lit for lit in true}
        grew = True
        while grew:  # a pass that sets no unit leaves every clause reduced
            grew = False
            live = []
            for c in clauses:
                if not true.isdisjoint(c):
                    continue
                if not false.isdisjoint(c):
                    c = [lit for lit in c if lit not in false]
                    if not c:
                        return None
                if len(c) == 1:  # set at once, so the clauses after it see it
                    true.add(c[0])
                    false.add(-c[0])
                    grew = True
                else:
                    live.append(c)
            clauses = live
        if not clauses:
            return true
        counts = Counter(map(abs, chain.from_iterable(clauses)))
        var = max(counts, key=lambda v: (counts[v], -v))
        for lit in (var, -var):
            model = search(clauses, true | {lit})
            if model is not None:
                return model
        return None

    model = search(clauses, set())
    if model is None:
        return None
    return {v: v in model for v in range(1, nvars + 1)} | {abs(lit): lit > 0 for lit in model}


# ---------------------------------------------------------------------------
# Whole-pipeline verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
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
    return BookDrawing(layout, k, [colors[i * layout.n : (i + 1) * layout.n] for i in range(layout.m)])


def check_layout(canonical: str, k: int, budget: int = DEFAULT_NODE_BUDGET) -> tuple[LayoutLog, tuple[int, ...] | None]:
    """Colorability verdict for one canonical layout string."""
    result = is_k_colorable(conflict_graph(canonical), k, budget)
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
    processes in batches (results come back in canonical order either way).
    """
    _check_ints(k=k, jobs=jobs)
    _check_ints(0, budget=budget)
    layouts = [c.canonical for c in necklace_classes(m, n)]
    done = {s: log for s, log in (completed or {}).items() if log.verdict == NOT_COLORABLE}
    pending = [s for s in layouts if s not in done]

    pool = None
    run = map
    if jobs > 1 and len(pending) > 1:
        from concurrent.futures import ProcessPoolExecutor  # lazy: a costly import

        pool = ProcessPoolExecutor(max_workers=min(jobs, len(pending)))  # a fork pool starts all at once
        # one pool task costs more than a typical layout, so layouts go out in
        # batches; with 32 batches per worker, a batch that holds one slow
        # layout leaves the other workers idle for little of the run
        run = partial(pool.map, chunksize=-(-len(pending) // (32 * jobs)))
    witness = None
    with pool or nullcontext():
        for log, colors in run(check_layout, pending, repeat(k), repeat(budget)):
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
