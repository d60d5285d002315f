"""Shared reference implementations (kept independent of the fast paths)."""

import random
import time
from bisect import bisect_left, bisect_right, insort
from math import comb, gcd
from typing import Iterator

import numpy as np

from bookcross.coloring import (
    BUDGET_EXCEEDED,
    COLORABLE,
    DEFAULT_NODE_BUDGET,
    NOT_COLORABLE,
    ColoringResult,
    ConflictGraph,
    _Budget,
    _ms,
    conflict_graph,
    find_clique,
)
from bookcross.drawings import BookDrawing, CircularLayout, CrossingReport, Edge, _check_edge, edges_cross
from bookcross.enumeration import NecklaceClass
from bookcross.oracle import OracleLimitError


def pairwise_crossing_per_page(d: BookDrawing) -> tuple[int, ...]:
    """O(E^2) reference per-page counts straight from the pairwise predicate."""
    edges = sorted(d.pages)
    per_page = [0] * d.k
    for a in range(len(edges)):
        for b in range(a + 1, len(edges)):
            e, f = edges[a], edges[b]
            if d.pages[e] == d.pages[f] and edges_cross(d.layout, e, f):
                per_page[d.pages[e]] += 1
    return tuple(per_page)


def pairwise_crossing_total(d: BookDrawing) -> int:
    """O(E^2) reference count straight from the pairwise predicate."""
    return sum(pairwise_crossing_per_page(d))


def random_layout(rng: random.Random, m: int, n: int) -> CircularLayout:
    seq = [("b", i) for i in range(m)] + [("w", j) for j in range(n)]
    rng.shuffle(seq)
    return CircularLayout(tuple(seq), m, n)


def random_drawing(rng: random.Random, m: int, n: int, k: int) -> BookDrawing:
    layout = random_layout(rng, m, n)
    pages = {(i, j): rng.randrange(k) for i in range(m) for j in range(n)}
    return BookDrawing(layout, k, pages)


# A plain form of the crossing-chain sweep, kept as the reference: it sorts the
# chords, filters them again at every cut and copies a run per chord.
# ``find_clique`` must return exactly its list on a conflict graph, since
# DSATUR pre-colors that clique.
def reference_crossing_chain(layout: CircularLayout) -> list[int]:
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


# The length of a longest crossing run at each spine cut, by the same plain
# sort per cut as ``reference_crossing_chain``; the sweep's bit-parallel
# length at cut p must equal entry p.
def reference_cut_lengths(layout: CircularLayout) -> list[int]:
    chords = sorted(
        (min(x, y), -max(x, y))
        for x in layout.black_positions
        for y in layout.white_positions
    )
    lengths = []
    for p in range(len(layout.seq)):
        tails: list[int] = []
        for lo, neg_hi in chords:
            if lo <= p < -neg_hi:
                r = bisect_left(tails, -neg_hi)
                tails[r : r + 1] = [-neg_hi]
        lengths.append(len(tails))
    return lengths


# The pairwise crossing kernel, kept as the reference now that it lives only
# here: it compares the chord ends of every pair of edges in numpy, while
# ``coloring._adjacency`` XORs prefix masks of Python ints, so the two are
# independent constructions.  The result is hand-built, so it holds no
# layout.  ``conflict_graph(layout).adj`` must equal its ``adj``.
def reference_conflict_graph(layout: CircularLayout) -> ConflictGraph:
    """Build the conflict graph of a layout through the pairwise crossing kernel."""
    m, n = layout.m, layout.n
    bpos = np.asarray(layout.black_positions, dtype=np.int64)
    wpos = np.asarray(layout.white_positions, dtype=np.int64)
    # vertex v = i*n + j; chord endpoints normalized to lo < hi
    x = np.repeat(bpos, n)
    y = np.tile(wpos, m)
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    # half[u, v]: lo[u] < lo[v] < hi[u] < hi[v].  A crossing pair passes in
    # exactly one orientation, so adjacency is half OR its transpose; the
    # strict inequalities keep chords that share an endpoint apart.
    half = (lo[:, None] < lo) & (lo < hi[:, None]) & (hi[:, None] < hi)
    # bit v of row u's little-endian bytes is entry (u, v)
    packed = np.packbits(half | half.T, axis=1, bitorder="little")
    return ConflictGraph(m, n, tuple(int.from_bytes(row.tobytes(), "little") for row in packed))


# The crossing sweep as it was before one bisect per chord, kept as the
# reference: each chord takes two bisects and an insort, and the chords
# are ordered by ``lexsort``.  ``count_crossings`` must return the same
# report, per page.
def reference_count_crossings(d: BookDrawing) -> CrossingReport:
    """Exact per-page and total crossing counts of a book drawing.

    One sweep over the chords (lo, hi) in (page, lo, -hi) order, keeping the
    sorted right ends of the chords already seen on the page.  A chord
    crosses exactly the earlier chords whose right end lies strictly inside
    (lo, hi): they all start at or before lo, and the -hi tie order puts the
    chords that share its left end among those ending at or after hi.  The
    strict bounds keep chords that share an endpoint apart.
    """
    lo, hi = d.layout.chords()
    page = d.page_array.ravel()
    order = np.lexsort((-hi, lo, page))
    los = lo[order].tolist()
    his = hi[order].tolist()
    per_page = []
    start = 0
    for size in np.bincount(page, minlength=d.k).tolist():
        ends: list[int] = []
        crossings = 0
        for a, b in zip(los[start:start + size], his[start:start + size]):
            crossings += bisect_left(ends, b) - bisect_right(ends, a)
            insort(ends, b)
        per_page.append(crossings)
        start += size
    return CrossingReport(sum(per_page), tuple(per_page))


# The crossing predicate as it was before the interval test, kept as the
# reference: it compares the arc lengths from e1's black end modulo m+n.
# ``edges_cross`` must give the same answer on every pair of edges.
def reference_edges_cross(layout: CircularLayout, e1: Edge, e2: Edge) -> bool:
    """Chord-interleaving predicate for two edges of K_{m,n}.

    True iff the four endpoints are distinct and exactly one endpoint of e2
    lies strictly inside one of the two arcs cut by e1.  Edges sharing an
    endpoint never cross (chords leaving a common spine point can always be
    drawn disjointly).
    """
    _check_edge(layout, e1)
    _check_edge(layout, e2)
    if e1[0] == e2[0] or e1[1] == e2[1]:
        return False
    nverts = layout.m + layout.n
    a = layout.black_positions[e1[0]]
    b = layout.white_positions[e1[1]]
    c = layout.black_positions[e2[0]]
    d = layout.white_positions[e2[1]]
    span = (b - a) % nverts
    return (((c - a) % nverts < span) != ((d - a) % nverts < span))


# The DSATUR search as it was before it kept saturation levels, kept as the
# reference: every node rebuilds the saturation masks from the per-color
# forbid masks, and a child in which a vertex sees all k colors is entered
# and returns at once.  ``is_k_colorable`` must return the same status, node
# count and assignment.
def reference_is_k_colorable(g: ConflictGraph, k: int, budget: int = DEFAULT_NODE_BUDGET) -> ColoringResult:
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


# The bracelet generator as it was before the anchor test and the block
# walk, kept as the reference: it walks the prenecklaces one bit per node and
# compares every rotation of the reversal with the necklace.
# ``necklace_classes`` must return exactly its classes, in the same order.
def reference_bracelets(m: int, n: int) -> Iterator[NecklaceClass]:
    """Orbit classes in ascending order, generated one at a time.

    Fixed-content FKM generation over '0' < '1' (Ruskey and Sawada) walks the
    prenecklaces with n zeros and m ones depth first on an explicit stack, so
    word length is not limited by the recursion depth.  A full-length word
    whose period p divides m+n is a necklace, the least of its rotations; it
    is kept as a bracelet when it is no greater than any rotation of its
    reversal (Sawada 2001).  The orbit has p strings, or 2p when the reversal
    is not a rotation of the necklace.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    size = m + n
    word = ["0"] * size
    # (position, symbol, period of the prefix ending there, ones in that prefix)
    stack = [(0, "0", 1, 0)]
    while stack:
        t, symbol, p, ones = stack.pop()
        word[t] = symbol
        t += 1
        if t == size:
            if size % p:
                continue
            s = "".join(word)
            twice = s[::-1] * 2
            r = min(twice[i : i + size] for i in range(p))
            if s <= r:
                yield NecklaceClass(s, p if s == r else 2 * p)
        elif ones < m:  # with only zeros left the word would end in '0', never a necklace
            # repeating word[t - p] keeps the period; a '1' above it makes the prefix a Lyndon word
            if word[t - p] == "1":
                stack.append((t, "1", p, ones + 1))
            else:
                stack.append((t, "1", t + 1, ones + 1))
                if t - ones < n:
                    stack.append((t, "0", p, ones))


# The orbit count as it was before it read Burnside's lemma term by term,
# kept as the reference: three parity cases for the reflections, and the
# (m even, n odd) case evaluated with the arguments swapped (the recursive
# call names this function).  ``count_formula`` must return the same count.
def reference_count_formula(m: int, n: int) -> int:
    """Closed-form number of distinct circular drawings of K_{m,n}.

    Orbit count of D_{m+n} acting on the C(m+n, m) two-colored cyclic
    orderings: the reflection term depends on the parities of m and n, the
    rotation term sums over the subgroup orders o(t) = d / gcd(t, d) with
    d = gcd(m, n).  The (m even, n odd) case is evaluated with the arguments
    swapped; the count is symmetric.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if m % 2 == 0 and n % 2 == 1:
        return reference_count_formula(n, m)
    total = m + n
    d = gcd(m, n)
    rotations = 0
    for t in range(d):
        o = d // gcd(t, d)
        rotations += comb(total // o, m // o)
    if m % 2 == 0 and n % 2 == 0:
        reflections = (total // 2) * (
            comb(total // 2, n // 2)
            + comb((total - 2) // 2, m // 2)
            + comb((total - 2) // 2, n // 2)
        )
    elif m % 2 == 1 and n % 2 == 0:
        reflections = total * comb((total - 1) // 2, n // 2)
    else:  # both odd
        reflections = total * comb((total - 2) // 2, (m - 1) // 2)
    value, rem = divmod(reflections + rotations, 2 * total)
    if rem:
        raise ArithmeticError(f"orbit count for ({m},{n}) is not integral; formula bug")
    return value


# The oracle's page-assignment walk as it was before the look-ahead bound,
# kept as the reference: it prunes only on the crossings already counted.
# ``oracle._layout_minimum`` must return the same minimum on every layout.
def reference_layout_minimum(layout: CircularLayout, k: int, best: int, budget: int) -> tuple[int, int]:
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
