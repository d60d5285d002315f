"""Circular-model book drawings of K_{m,n} and exact crossing counting.

A k-page book drawing is represented as k circular drawings sharing one
cyclic vertex order (the spine order): vertices sit on a circle, every
edge is a chord, and each edge lives on exactly one page.  Two chords on
the same page cross iff their endpoint pairs interleave in cyclic order.

Vertices are identified by (color, index) tokens: ``("b", i)`` for the i-th
black vertex (the part of size m) and ``("w", j)`` for the j-th white vertex
(the part of size n).  Positions on the circle are a separate concept, so
constructions can be phrased in either frame.

A ``BookDrawing`` keeps its pages as an m x n integer array, entry [i, j]
holding the page of the edge joining black i to white j; ``pages`` reads that
array as a mapping from edges to pages.  The drawing is immutable: its array
wraps a read-only buffer whose flag cannot be set back, and its attributes
cannot be reassigned, so the ``CrossingReport`` of the first
``count_crossings`` call is kept on the drawing and every later call returns
it.  Each drawing is counted once, however many callers ask, and has at
most 2**20 pages, however it is made.

``count_crossings`` settles each page whose chords all balance (as many
chords start inside each chord as end inside it) as crossing-free, and
sweeps the chords of the other pages with one bisect each, less the pairs
that end before they start, which one numpy search finds; ``edges_cross``
stays the independent reference for it and for the prefix-XOR conflict
graphs.  Closed-form totals live in ``bounds``.  Counts are exact integers.

Importing this module does not import numpy: the functions that build or
read a page array import it on first use, so the layout-only paths
(enumeration, bounds, a proven ``verify_positive_crossing``) never load it.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from numbers import Integral
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    import numpy as np

Vertex = tuple[str, int]
Edge = tuple[int, int]  # (black index, white index)


class DrawingFormatError(ValueError):
    """Raised when on-disk drawing JSON violates the documented schema."""


def vertex_name(v: Vertex) -> str:
    return f"{v[0]}{v[1]}"


def parse_vertex(name: str) -> Vertex:
    """Parse a ``"b<i>"`` / ``"w<j>"`` token; raises DrawingFormatError."""
    # ASCII digits only: str.isdigit() also takes "²" and other scripts' digits
    if not (isinstance(name, str) and name[:1] in ("b", "w") and name[1:].isascii() and name[1:].isdigit()):
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
        blacks = [i for c, i in self.seq if c == "b"]
        whites = [j for c, j in self.seq if c == "w"]
        labels = (self.m, self.n, *blacks, *whites)
        # one type test per distinct type; numpy integers take the per-label path
        if not (set(map(type, labels)) <= {int} or all(map(_is_index, labels))):
            raise ValueError(f"layout m, n and vertex labels must be integers, got {self!r}")
        if len(self.seq) != self.m + self.n:
            raise ValueError(
                f"layout has {len(self.seq)} positions, expected m+n = {self.m + self.n}"
            )
        blacks.sort()
        whites.sort()
        if blacks != list(range(self.m)) or whites != list(range(self.n)):
            raise ValueError("layout must contain each b0..b{m-1}, w0..w{n-1} exactly once")

    @classmethod
    def of(cls, seq: Iterable[Vertex]) -> "CircularLayout":
        """Build a layout from a vertex sequence, inferring m and n."""
        seq = tuple(seq)
        m = sum(1 for c, _ in seq if c == "b")
        return cls(seq, m, len(seq) - m)

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

    def chords(self) -> tuple[np.ndarray, np.ndarray]:
        """The (lo, hi) spine positions of every edge's chord, lo < hi, as
        int64 arrays holding edge (i, j) at index i*n + j."""
        import numpy as np

        bpos = np.asarray(self.black_positions, dtype=np.int64)
        wpos = np.asarray(self.white_positions, dtype=np.int64)
        return np.minimum.outer(bpos, wpos).ravel(), np.maximum.outer(bpos, wpos).ravel()

    def rotated(self, shift: int) -> "CircularLayout":
        """Layout cyclically rotated by ``shift`` positions."""
        k = shift % len(self.seq)
        return CircularLayout(self.seq[k:] + self.seq[:k], self.m, self.n)

    def reflected(self) -> "CircularLayout":
        return CircularLayout(self.seq[::-1], self.m, self.n)

    def to_bitstring(self) -> str:
        """Black=1 / white=0 pattern of the cyclic order (position 0 first)."""
        return "".join("1" if c == "b" else "0" for c, _ in self.seq)


class PageMap(Mapping):
    """Read-only view of an m x n page array as a mapping from edge (i, j) to
    its page, in row-major edge order."""

    __slots__ = ("_array",)

    def __init__(self, array: np.ndarray):
        self._array = array

    def __getitem__(self, edge: Edge) -> int:
        m, n = self._array.shape
        try:
            i, j = edge
            if 0 <= i < m and 0 <= j < n:
                return int(self._array[i, j])
        except (TypeError, ValueError, IndexError):
            pass
        raise KeyError(edge)

    def __iter__(self) -> Iterator[Edge]:
        m, n = self._array.shape
        return product(range(m), range(n))

    def __len__(self) -> int:
        return self._array.size


def _page_array(pages: Mapping[Edge, int] | np.ndarray, layout: CircularLayout) -> np.ndarray:
    """A C-ordered int64 copy of ``pages`` shaped m x n, with every edge placed once.

    A mapping's keys pass ``_check_edge``; its pages, and those of nested
    lists or a non-integer array, pass ``_is_index`` one by one.
    """
    import numpy as np

    m, n = layout.m, layout.n
    if isinstance(pages, Mapping):
        if len(pages) != m * n:
            raise ValueError(f"expected {m * n} edges, got {len(pages)}")
        rows = np.empty((m, n), dtype=object)
        for e, p in pages.items():
            try:
                _check_edge(layout, e)
            except TypeError:  # a key that does not unpack
                raise ValueError(f"edge keys must be (i, j) pairs, got {e!r}") from None
            rows[e] = p
        pages = rows  # distinct keys, all in range, m*n of them: every edge is placed once
    given = pages if isinstance(pages, np.ndarray) else np.asarray(pages, dtype=object)
    if given.shape != (m, n):
        raise ValueError(f"expected a {m}x{n} page array, got shape {given.shape}")
    if given.dtype.kind not in "iu":
        for p in given.flat:
            if not _is_index(p):
                raise ValueError(f"pages must be integers, got {p!r}")
    try:
        return given.astype(np.int64, order="C")
    except OverflowError:
        raise ValueError("page out of range: beyond 64-bit integers") from None


class BookDrawing:
    """A CircularLayout plus one of k <= 2**20 pages for every edge of K_{m,n}.

    ``pages`` maps every edge (i, j) to its page, or holds m rows of n pages
    as nested lists or an integer array; an edge index or page that is not an
    integer raises ValueError.  The drawing keeps a read-only int64 copy as
    ``page_array``; ``pages`` reads it back as a mapping.

    A drawing is immutable: setting ``page_array.flags.writeable`` back to
    True raises ValueError and assigning an attribute raises AttributeError.
    Its crossing report is computed once, by the first ``count_crossings``
    call, and stored on it.
    """

    __slots__ = ("layout", "k", "page_array", "_report")

    def __init__(self, layout: CircularLayout, k: int, pages: Mapping[Edge, int] | np.ndarray):
        import numpy as np

        _check_page_count(k)
        array = _page_array(pages, layout)
        outside = (array < 0) | (array >= k)
        if outside.any():
            raise ValueError(f"page {int(array.flat[outside.argmax()])} out of range for k={k}")
        # a view of a read-only buffer: unlike writeable = False, no one can
        # set its flag back and make the stored report stale
        frozen = np.frombuffer(memoryview(array).toreadonly(), dtype=np.int64).reshape(array.shape)
        for name, value in (("layout", layout), ("k", k), ("page_array", frozen), ("_report", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"a BookDrawing is immutable: cannot set {name!r}")

    @property
    def m(self) -> int:
        return self.layout.m

    @property
    def n(self) -> int:
        return self.layout.n

    @property
    def pages(self) -> PageMap:
        return PageMap(self.page_array)

    def __eq__(self, other):
        if not isinstance(other, BookDrawing):
            return NotImplemented
        return (
            self.layout == other.layout
            and self.k == other.k
            and self.page_array.shape == other.page_array.shape
            and bool((self.page_array == other.page_array).all())
        )

    def __reduce__(self):
        return (BookDrawing, (self.layout, self.k, self.page_array))

    def __repr__(self) -> str:
        return f"BookDrawing(layout={self.layout!r}, k={self.k}, page_array={self.page_array.tolist()!r})"


@dataclass(frozen=True)
class CrossingReport:
    total: int
    per_page: tuple[int, ...]

    def __post_init__(self):
        if self.total != sum(self.per_page):
            raise ValueError("total must equal the sum of per-page counts")


def _is_index(v: object) -> bool:
    """True for an int or a numpy integer, False for a bool or a float.

    A bool would pass a range check as 0 or 1.  A plain int (a bool's type is
    not int) skips the slower ABC check, which the O(E^2) pairwise reference
    would pay on every ``edges_cross`` call.
    """
    return type(v) is int or (not isinstance(v, bool) and isinstance(v, Integral))


def _check_ints(low: int = 1, **values: object) -> None:
    """Raise ValueError, naming the argument, at the first value that is not
    an integer (``_is_index``) or is below ``low``."""
    for name, value in values.items():
        if type(value) is int and value >= low:
            continue
        if not _is_index(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < low:
            least = "positive" if low == 1 else "non-negative" if low == 0 else f"at least {low}"
            raise ValueError(f"{name} must be {least}, got {value!r}")


# Counting, loading and rendering a drawing take time and memory per page;
# BookDrawing, and a construction that loops over pages first, check k here.
_MAX_PAGES = 2**20


def _check_page_count(k: int) -> None:
    _check_ints(**{"page count k": k})
    if k > _MAX_PAGES:
        raise ValueError(f"page count k={k} above the {_MAX_PAGES} pages a drawing may have")


def _check_edge(layout: CircularLayout, e: Edge) -> None:
    i, j = e
    if not (_is_index(i) and _is_index(j)):
        raise ValueError(f"edge vertex indices must be integers, got {e!r}")
    if not (0 <= i < layout.m and 0 <= j < layout.n):
        raise ValueError(f"edge ({i},{j}) out of range for K_{{{layout.m},{layout.n}}}")


def edges_cross(layout: CircularLayout, e1: Edge, e2: Edge) -> bool:
    """Chord-interleaving predicate for two edges of K_{m,n}.

    True iff the four endpoints are distinct and exactly one endpoint of e2
    lies strictly inside the spine interval (a, b) between e1's endpoints.
    Edges sharing an endpoint never cross (chords leaving a common spine
    point can always be drawn disjointly).
    """
    _check_edge(layout, e1)
    _check_edge(layout, e2)
    if e1[0] == e2[0] or e1[1] == e2[1]:
        return False
    a, b = sorted((layout.black_positions[e1[0]], layout.white_positions[e1[1]]))
    c = layout.black_positions[e2[0]]
    d = layout.white_positions[e2[1]]
    return (a < c < b) != (a < d < b)


def count_crossings(d: BookDrawing) -> CrossingReport:
    """Exact per-page and total crossing counts of a book drawing.

    First a balance test settles the pages with no crossing.  Read each
    chord x as an interval of the spine; let R(x) count the chords of its
    page that start strictly inside x and end beyond it, and L(x) those that
    start before x and end strictly inside it.  A page has no crossing iff
    R(x) = L(x) for every chord x on it.  If some chord is crossed from the
    left, take the one with the largest right end: balance gives it a chord
    that crosses it from the right, which is itself crossed from the left
    and ends further right, a contradiction.  R(x) - L(x) is the number of
    chords of the page that start inside x less the number that end inside
    it; nested chords, and chords that share an endpoint with x, count once
    on each side.  Both numbers come from sorted searches, one per chord.

    The pages that fail the test, and only those, are counted by one sweep
    over their chords (lo, hi) in (page, lo, -hi) order, keeping the sorted
    right ends of the chords already seen on the page.  A chord crosses
    exactly the earlier chords whose right end lies strictly inside
    (lo, hi): they all start at or before lo, and the -hi tie order puts the
    chords that share its left end among those ending at or after hi.  The
    strict bounds keep chords that share an endpoint apart.

    So each chord takes one bisect, the earlier chords that end below hi,
    and each page subtracts the earlier chords that end at or before lo.
    That term does not depend on the sweep: a chord of the page that ends at
    or before lo also starts before lo, so it always comes earlier.  Summed
    over a page, it counts the pairs in which one chord ends at or before
    the other starts: one search of each right end among the page's sorted
    left ends, in memory linear in the chord count.

    The first call stores its report on the drawing, which cannot change;
    every later call returns that same report.
    """
    if d._report is not None:
        return d._report
    import numpy as np

    lo, hi = d.layout.chords()
    page = d.page_array.ravel()
    spine = d.m + d.n
    counts = np.bincount(page, minlength=d.k)
    occupied = np.flatnonzero(counts)
    sizes = counts[occupied]
    firsts = sizes.cumsum() - sizes
    # ends keyed by the chord's rank among the occupied pages, so the sort
    # key stays below E * spine**2 whatever k is; no two chords share both
    # ends, so the key is unique and any sort kind gives the same order.
    # The chord arrays are E long: each temporary goes as soon as it is used.
    base = np.searchsorted(occupied, page) * spine
    order = ((base + lo) * spine + (spine - 1 - hi)).argsort(kind="stable")
    del base
    lo, hi = lo[order], hi[order]
    del order
    base = np.repeat(np.arange(len(occupied)) * spine, sizes)  # in sweep order
    keyed_lo, keyed_hi = base + lo, base + hi
    del base
    # in sweep order the keyed left ends are sorted, so one search per chord
    # counts the chords of earlier pages, and of its own page, that start
    # before it ends; the rest of its page start at or after its right end
    balance = np.searchsorted(keyed_lo, keyed_hi)
    before = sizes * (firsts + sizes) - np.add.reduceat(balance, firsts)
    # less the chords up to x in sweep order, it counts those of the page
    # that start inside x (or at lo, ending inside x); from that take those
    # that end inside x (or at hi, starting inside x): x's rank in
    # (page, hi, -lo) order, less the chords that end at or before lo
    balance -= np.arange(1, len(balance) + 1)
    keyed_hi *= spine
    keyed_hi += spine - 1 - lo
    del lo
    ranked = np.sort(keyed_hi, kind="stable")  # the default kind would load numpy's SIMD quicksort too
    balance -= np.searchsorted(ranked, keyed_hi)
    del keyed_hi
    keyed_lo += 1
    keyed_lo *= spine
    balance += np.searchsorted(ranked, keyed_lo)
    del ranked, keyed_lo
    crossed = np.logical_or.reduceat(balance != 0, firsts)
    del balance
    per_page = [0] * d.k
    for p, start, count, term in zip(*(a[crossed].tolist() for a in (occupied, firsts, sizes, before))):
        ends: list[int] = []
        crossings = -term
        for b in hi[start:start + count].tolist():
            i = bisect_left(ends, b)
            crossings += i
            ends.insert(i, b)
        per_page[p] = crossings
    report = CrossingReport(sum(per_page), tuple(per_page))
    object.__setattr__(d, "_report", report)
    return report


def page_loads(d: BookDrawing, w: int) -> list[int]:
    """Per-page counts of edges incident with white vertex ``w``.

    Entries sum to m, the degree of a white vertex.
    """
    import numpy as np

    _check_ints(0, **{"white vertex": w})
    if w >= d.n:
        raise ValueError(f"white vertex {w} out of range for n={d.n}")
    return np.bincount(d.page_array[:, w], minlength=d.k).tolist()


def is_balanced_embedding(d: BookDrawing) -> bool:
    """True iff d is a crossing-free k-page embedding of K_{k+1,s} in which
    every white vertex has load 1 on k-1 pages and load 2 on the remaining one.
    """
    import numpy as np

    if d.m != d.k + 1:
        raise ValueError(f"balanced embeddings have m = k+1 black vertices, got m={d.m}, k={d.k}")
    if count_crossings(d).total != 0:
        return False
    # loads[w*k + p] is white w's load on page p; the k loads of a white
    # vertex sum to k+1, so all of them are >= 1 iff one is 2 and the rest 1
    loads = np.bincount((d.page_array + d.k * np.arange(d.n)).ravel(), minlength=d.n * d.k)
    return bool(np.all(loads >= 1))


# ---------------------------------------------------------------------------
# Canonical JSON format
#
# {"m": .., "n": .., "k": .., "order": ["b0", "w0", ...],
#  "edges": [[i, j, p], ...]}
#
# ``order`` is the clockwise spine order; each edge triple is
# (black index, white index, page), all JSON integers.  Loaders reject other
# types, duplicate edges, missing edges, and out-of-range vertices or pages.
# A file's k, like any drawing's, is at most _MAX_PAGES; a larger one is malformed.
# ---------------------------------------------------------------------------


def to_json(d: BookDrawing) -> str:
    doc = {
        "m": int(d.m),  # a numpy integer is not JSON serializable
        "n": int(d.n),
        "k": int(d.k),
        "order": [vertex_name(v) for v in d.layout.seq],
        "edges": [[i, j, p] for i, row in enumerate(d.page_array.tolist()) for j, p in enumerate(row)],
    }
    return json.dumps(doc, separators=(", ", ": "))


def from_json(text: str) -> BookDrawing:
    """Parse the canonical JSON form; every defect (k above 2**20 too) raises DrawingFormatError."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, over-long integers, over-deep nesting
        raise DrawingFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DrawingFormatError("top-level value must be an object")
    try:
        m, n, k, order, edges = (doc[key] for key in ("m", "n", "k", "order", "edges"))
    except KeyError as exc:
        raise DrawingFormatError(f"missing field: {exc}") from exc
    if not all(map(_is_index, (m, n, k))):
        raise DrawingFormatError(f"m, n and k must be integers, got {(m, n, k)!r}")
    if not isinstance(order, list) or not isinstance(edges, list):
        raise DrawingFormatError("'order' and 'edges' must be arrays")
    seq = tuple(parse_vertex(name) for name in order)
    pages: dict[Edge, int] = {}
    for item in edges:
        if not (isinstance(item, list) and len(item) == 3 and all(map(_is_index, item))):
            raise DrawingFormatError(f"edge entries must be [i, j, p] integer triples, got {item!r}")
        i, j, p = item
        if (i, j) in pages:  # a dict would silently keep only the last one
            raise DrawingFormatError(f"duplicate edge ({i},{j})")
        pages[(i, j)] = p
    try:
        return BookDrawing(CircularLayout(seq, m, n), k, pages)
    except ValueError as exc:
        raise DrawingFormatError(str(exc)) from exc


def permute_pages(d: BookDrawing, perm: list[int]) -> BookDrawing:
    """Drawing with page indices relabeled by ``perm`` (a permutation of 0..k-1)."""
    import numpy as np

    # sorted() alone would take True for 1 and 1.0 for 1
    if not all(_is_index(p) for p in perm):
        raise ValueError(f"perm entries must be integers, got {perm!r}")
    if sorted(perm) != list(range(d.k)):
        raise ValueError("perm must be a permutation of 0..k-1")
    return BookDrawing(d.layout, d.k, np.asarray(perm)[d.page_array])

