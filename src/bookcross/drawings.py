"""Circular-model book drawings of K_{m,n} and exact crossing counting.

A k-page book drawing is represented as k circular drawings sharing one
cyclic vertex order (the spine order): vertices sit on a circle, every
edge is a chord, and each edge lives on exactly one page.  Two chords on
the same page cross iff their endpoint pairs interleave in cyclic order.

Vertices are identified by (color, index) tokens: ``("b", i)`` for the i-th
black vertex (the part of size m) and ``("w", j)`` for the j-th white vertex
(the part of size n).  Positions on the circle are a separate concept, so
constructions can be phrased in either frame.

``half_interleaving`` is the one vectorized crossing kernel: both
``count_crossings`` and ``coloring.conflict_graph`` go through it, while the
scalar ``edges_cross`` stays as the independent reference.  Closed-form
crossing totals live in ``bounds``.

All arithmetic is exact Python integer arithmetic; the vectorized counting
path only produces counts bounded by the number of edge pairs, far below
int64 range for any m, n <= 10**4.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

Vertex = tuple[str, int]
Edge = tuple[int, int]  # (black index, white index)


class DrawingFormatError(ValueError):
    """Raised when on-disk drawing JSON violates the documented schema."""


def black(i: int) -> Vertex:
    return ("b", i)


def white(j: int) -> Vertex:
    return ("w", j)


def vertex_name(v: Vertex) -> str:
    return f"{v[0]}{v[1]}"


def parse_vertex(name: str) -> Vertex:
    """Parse a ``"b<i>"`` / ``"w<j>"`` token; raises DrawingFormatError."""
    if not isinstance(name, str) or len(name) < 2 or name[0] not in ("b", "w") or not name[1:].isdigit():
        raise DrawingFormatError(f"bad vertex token {name!r}")
    return (name[0], int(name[1:]))


@dataclass(frozen=True)
class CircularLayout:
    """Cyclic arrangement of m black and n white vertices (the spine order).

    ``seq`` lists the vertices clockwise; position m+n-1 is adjacent to
    position 0.  Every black index 0..m-1 and white index 0..n-1 must appear
    exactly once.
    """

    seq: tuple[Vertex, ...]
    m: int
    n: int

    def __post_init__(self):
        if len(self.seq) != self.m + self.n:
            raise ValueError(
                f"layout has {len(self.seq)} positions, expected m+n = {self.m + self.n}"
            )
        blacks = sorted(i for c, i in self.seq if c == "b")
        whites = sorted(j for c, j in self.seq if c == "w")
        if blacks != list(range(self.m)) or whites != list(range(self.n)):
            raise ValueError("layout must contain each b0..b{m-1}, w0..w{n-1} exactly once")

    @classmethod
    def of(cls, seq: Iterable[Vertex]) -> "CircularLayout":
        """Build a layout from a vertex sequence, inferring m and n."""
        seq = tuple(seq)
        m = sum(1 for c, _ in seq if c == "b")
        return cls(seq, m, len(seq) - m)

    @cached_property
    def position(self) -> dict[Vertex, int]:
        return {v: p for p, v in enumerate(self.seq)}

    @cached_property
    def black_positions(self) -> list[int]:
        pos = [0] * self.m
        for p, (c, i) in enumerate(self.seq):
            if c == "b":
                pos[i] = p
        return pos

    @cached_property
    def white_positions(self) -> list[int]:
        pos = [0] * self.n
        for p, (c, j) in enumerate(self.seq):
            if c == "w":
                pos[j] = p
        return pos

    def rotated(self, shift: int) -> "CircularLayout":
        """Layout cyclically rotated by ``shift`` positions."""
        k = shift % len(self.seq)
        return CircularLayout(self.seq[k:] + self.seq[:k], self.m, self.n)

    def reflected(self) -> "CircularLayout":
        return CircularLayout(self.seq[::-1], self.m, self.n)

    def to_bitstring(self) -> str:
        """Black=1 / white=0 pattern of the cyclic order (position 0 first)."""
        return "".join("1" if c == "b" else "0" for c, _ in self.seq)


@dataclass
class BookDrawing:
    """A CircularLayout plus a page for every edge of K_{m,n}."""

    layout: CircularLayout
    k: int
    pages: dict[Edge, int]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("page count k must be >= 1")
        m, n = self.layout.m, self.layout.n
        if len(self.pages) != m * n:
            raise ValueError(f"expected {m * n} edges, got {len(self.pages)}")
        for (i, j), p in self.pages.items():
            if not (0 <= i < m and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for K_{{{m},{n}}}")
            if not (0 <= p < self.k):
                raise ValueError(f"page {p} out of range for k={self.k}")

    @property
    def m(self) -> int:
        return self.layout.m

    @property
    def n(self) -> int:
        return self.layout.n


@dataclass(frozen=True)
class CrossingReport:
    total: int
    per_page: tuple[int, ...]

    def __post_init__(self):
        if self.total != sum(self.per_page):
            raise ValueError("total must equal the sum of per-page counts")


def _check_edge(layout: CircularLayout, e: Edge) -> None:
    i, j = e
    if not (0 <= i < layout.m and 0 <= j < layout.n):
        raise ValueError(f"edge ({i},{j}) out of range for K_{{{layout.m},{layout.n}}}")


def edges_cross(layout: CircularLayout, e1: Edge, e2: Edge) -> bool:
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


def half_interleaving(lo: np.ndarray, hi: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """The crossing kernel: ``out[r, c]`` is True iff lo[i] < lo[c] < hi[i] < hi[c]
    for the r-th chord i of ``rows``; chords are linear positions lo < hi.

    A crossing pair passes in exactly one orientation, so the full relation is
    the matrix OR its transpose.  Strict inequalities keep chords that share
    an endpoint apart.
    """
    lo_r = lo[rows, None]
    hi_r = hi[rows, None]
    return (lo_r < lo) & (lo < hi_r) & (hi_r < hi)


def count_crossings(d: BookDrawing) -> CrossingReport:
    """Exact per-page and total crossing counts of a book drawing.

    Each page is counted through ``half_interleaving`` in row chunks, which
    keeps memory bounded for large pages.
    """
    bpos = d.layout.black_positions
    wpos = d.layout.white_positions
    lo_by_page: list[list[int]] = [[] for _ in range(d.k)]
    hi_by_page: list[list[int]] = [[] for _ in range(d.k)]
    for (i, j), p in d.pages.items():
        x = bpos[i]
        y = wpos[j]
        if x > y:
            x, y = y, x
        lo_by_page[p].append(x)
        hi_by_page[p].append(y)
    per_page = []
    for lo_list, hi_list in zip(lo_by_page, hi_by_page):
        lo = np.asarray(lo_list, dtype=np.int64)
        hi = np.asarray(hi_list, dtype=np.int64)
        chunk = max(1, (1 << 22) // max(len(lo), 1))
        per_page.append(sum(
            int(np.count_nonzero(half_interleaving(lo, hi, slice(r, r + chunk))))
            for r in range(0, len(lo), chunk)
        ))
    return CrossingReport(sum(per_page), tuple(per_page))


def page_loads(d: BookDrawing, w: int) -> list[int]:
    """Per-page counts of edges incident with white vertex ``w``.

    Entries sum to m, the degree of a white vertex.
    """
    if not (0 <= w < d.n):
        raise ValueError(f"white vertex {w} out of range for n={d.n}")
    loads = [0] * d.k
    for i in range(d.m):
        loads[d.pages[(i, w)]] += 1
    return loads


def is_balanced_embedding(d: BookDrawing) -> bool:
    """True iff d is a crossing-free k-page embedding of K_{k+1,s} in which
    every white vertex has load 1 on k-1 pages and load 2 on the remaining one.
    """
    if d.m != d.k + 1:
        raise ValueError(f"balanced embeddings have m = k+1 black vertices, got m={d.m}, k={d.k}")
    if count_crossings(d).total != 0:
        return False
    for w in range(d.n):
        if sorted(page_loads(d, w)) != [1] * (d.k - 1) + [2]:
            return False
    return True


# ---------------------------------------------------------------------------
# Canonical JSON format
#
# {"m": .., "n": .., "k": .., "order": ["b0", "w0", ...],
#  "edges": [[i, j, p], ...]}
#
# ``order`` is the clockwise spine order; each edge triple is
# (black index, white index, page), all JSON integers.  Loaders reject other
# types, duplicate edges, missing edges, and out-of-range vertices or pages.
# ---------------------------------------------------------------------------


def to_json(d: BookDrawing) -> str:
    edges = sorted((i, j, p) for (i, j), p in d.pages.items())
    doc = {
        "m": d.m,
        "n": d.n,
        "k": d.k,
        "order": [vertex_name(v) for v in d.layout.seq],
        "edges": [list(e) for e in edges],
    }
    return json.dumps(doc, separators=(", ", ": "))


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DrawingFormatError(f"{what} must be an integer, got {value!r}")
    return value


def from_json(text: str) -> BookDrawing:
    """Parse the canonical JSON form; every defect raises DrawingFormatError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DrawingFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DrawingFormatError("top-level value must be an object")
    try:
        m, n, k = (_json_int(doc[key], key) for key in ("m", "n", "k"))
        order = doc["order"]
        edges = doc["edges"]
    except KeyError as exc:
        raise DrawingFormatError(f"missing field: {exc}") from exc
    if not isinstance(order, list) or not isinstance(edges, list):
        raise DrawingFormatError("'order' and 'edges' must be arrays")
    seq = tuple(parse_vertex(name) for name in order)
    pages: dict[Edge, int] = {}
    for item in edges:
        if not (isinstance(item, list) and len(item) == 3):
            raise DrawingFormatError(f"edge entries must be [i, j, p] triples, got {item!r}")
        i, j, p = (_json_int(x, "edge entry") for x in item)
        if (i, j) in pages:  # a dict would silently keep only the last one
            raise DrawingFormatError(f"duplicate edge ({i},{j})")
        pages[(i, j)] = p
    try:
        return BookDrawing(CircularLayout(seq, m, n), k, pages)
    except ValueError as exc:
        raise DrawingFormatError(str(exc)) from exc


def permute_pages(d: BookDrawing, perm: list[int]) -> BookDrawing:
    """Drawing with page indices relabeled by ``perm`` (a permutation of 0..k-1)."""
    if sorted(perm) != list(range(d.k)):
        raise ValueError("perm must be a permutation of 0..k-1")
    return BookDrawing(d.layout, d.k, {e: perm[p] for e, p in d.pages.items()})

