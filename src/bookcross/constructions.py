"""Explicit drawing families with known exact crossing counts.

Four constructions:

* ``riskin_drawing``   -- 1-page drawing on the balanced gap word, optimal for
  every m, n.
* ``balanced_embedding`` -- crossing-free k-page embedding of
  K_{k+1, floor((k+1)^2/4)} in which every white vertex has load 2 on exactly
  one page.
* ``blowup``           -- expands each white vertex of a balanced embedding
  into a cluster of copies, giving a drawing of K_{k+1,n} for any n.
* ``block_cyclic``     -- splits both sides into k near-equal groups placed
  alternately on the circle, page i taking the group products with index sum i.

The balanced embedding is one closed form: with s = floor((k+1)/2) and
t = k+1-s, the edge from black i to white j lies on page
((j + min(i, s)(s-1)) div s + max(i-s, 0)) mod k.  Correctness is not taken
on faith: every balanced embedding is validated (zero crossings, balanced
loads) and a violation raises ConstructionError.  The validation's count is
the one its callers read: ``count_crossings`` keeps its report on the
drawing, so counting the embedding again, or checking it as a ``blowup``
base, returns that report without a second sweep.

Each construction builds its layout from its black = 1 / white = 0 word
through ``enumeration.layout_from_string``, which numbers the vertices
clockwise, and fills an m x n page array, which becomes the drawing's pages;
crossings are counted by ``drawings.count_crossings``.  The
``*_crossing_count`` functions keep their names but delegate to ``bounds``,
which owns every closed form.

Importing this module does not import numpy; each construction imports it
when it fills its page array.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import block_cyclic_bound, riskin_value, turan_lower
from .drawings import BookDrawing, CircularLayout, _check_ints, _check_page_count, is_balanced_embedding
from .enumeration import layout_from_string


class ConstructionError(RuntimeError):
    """A construction produced an invalid drawing (internal bug guard)."""


def riskin_drawing(m: int, n: int) -> BookDrawing:
    """1-page drawing of K_{m,n} with floor((i+1)n/m) - floor(in/m) whites
    after black i (n/m each when m | n).  It attains ``bounds.riskin_value``,
    whose proof shows this word optimal."""
    import numpy as np

    _check_ints(m=m, n=n)
    layout = layout_from_string("".join("1" + "0" * ((i + 1) * n // m - i * n // m) for i in range(m)))
    return BookDrawing(layout, 1, np.zeros((m, n), dtype=np.int64))


def riskin_crossing_count(m: int, n: int) -> int:
    """Closed-form 1-page minimum ``bounds.riskin_value``, for every m, n."""
    return riskin_value(m, n).value


@dataclass(frozen=True)
class BalancedParams:
    """Shape of a balanced k-page embedding: s+t = k+1 blacks, t white blocks
    of s whites each (so s*t = floor((k+1)^2/4) whites in total)."""

    k: int
    s: int
    t: int

    def __post_init__(self):
        if self.t not in (self.s, self.s + 1) or self.s + self.t != self.k + 1:
            raise ValueError(f"inconsistent balanced parameters {self}")

    @classmethod
    def for_pages(cls, k: int) -> "BalancedParams":
        _check_ints(k=k)
        s = (k + 1) // 2
        return cls(k, s, (k + 1) - s)

    @property
    def white_count(self) -> int:
        return self.s * self.t

    def white_block(self, i: int) -> range:
        """Indices of block W_i (i taken mod t)."""
        base = (i % self.t) * self.s
        return range(base, base + self.s)


def balanced_parameters(k: int) -> tuple[int, int]:
    """(s, t) with s = floor((k+1)/2), t = ceil((k+1)/2); s*t = floor((k+1)^2/4)."""
    p = BalancedParams.for_pages(k)
    return p.s, p.t


def balanced_embedding(k: int) -> BookDrawing:
    """Balanced k-page embedding of K_{k+1, floor((k+1)^2/4)}.

    Layout: blacks b_0..b_{s+t-1} clockwise with the white block
    W_i = {w_{i s}, ..., w_{i s + s - 1}} inserted between b_{s+i} and
    b_{s+i+1} for i = 0..t-1, i.e. the word 1^(s+1) (0^s 1)^(t-1) 0^s.
    Edge (b_i, w_j) lies on page
    ((j + min(i, s)(s-1)) div s + max(i-s, 0)) mod k.
    Every result is validated by ``is_balanced_embedding``; a failure raises
    ConstructionError.
    """
    import numpy as np

    s, t = balanced_parameters(k)
    layout = layout_from_string("1" * (s + 1) + ("0" * s + "1") * (t - 1) + "0" * s)
    rows = np.arange(k + 1)
    # built in place: the one-expression form holds several (k+1) x st temporaries at once
    pages = np.add.outer(np.minimum(rows, s) * (s - 1), np.arange(s * t))
    pages //= s
    pages += np.maximum(rows - s, 0)[:, None]
    pages %= k
    drawing = BookDrawing(layout, k, pages)
    if not is_balanced_embedding(drawing):
        raise ConstructionError(f"k={k} construction failed the balance/planarity check")
    return drawing


def blowup(base: BookDrawing, n: int) -> BookDrawing:
    """Expand the white side of a balanced k-page embedding to n vertices.

    With ell whites in the base and q = n mod ell, the q lowest-indexed white
    vertices become ((n-q)/ell + 1)-clusters and the rest ((n-q)/ell)-clusters.
    Cluster copies sit contiguously at the source vertex's position (clockwise
    after the original) and inherit its page per edge.  The resulting total is
    q*C((n-q)/ell + 1, 2) + (ell-q)*C((n-q)/ell, 2).
    """
    import numpy as np

    if not is_balanced_embedding(base):
        raise ValueError("blow-up base must be a balanced embedding")
    ell = base.n
    _check_ints(ell, n=n)
    q, size = n % ell, (n - n % ell) // ell
    cluster = [size + 1 if j < q else size for j in range(ell)]
    offset = [0] * ell
    for j in range(1, ell):
        offset[j] = offset[j - 1] + cluster[j - 1]

    seq: list[tuple[str, int]] = []
    for c, idx in base.layout.seq:
        if c == "b":
            seq.append(("b", idx))
        else:
            seq.extend(("w", offset[idx] + copy) for copy in range(cluster[idx]))
    layout = CircularLayout(tuple(seq), base.m, n)
    # white offset[j] + copy is a copy of base white j
    source = np.repeat(np.arange(ell), cluster)
    return BookDrawing(layout, base.k, base.page_array[:, source])


def blowup_crossing_count(k: int, n: int) -> int:
    """Closed-form crossing total of ``blowup(balanced_embedding(k), n)``:
    ``bounds.turan_lower`` at width s*t, which the blow-up attains."""
    s, t = balanced_parameters(k)
    _check_ints(s * t, n=n)
    return turan_lower(k, n, s * t)


def block_cyclic(m: int, n: int, k: int) -> BookDrawing:
    """Block-cyclic k-page drawing of K_{m,n}.

    Blacks split into groups B_0..B_{k-1} (the first k-r of size p where
    m = kp + r), whites into W_0..W_{k-1} likewise; the circle reads
    B_0, W_0, B_1, W_1, ..., B_{k-1}, W_{k-1} and page i holds the edges
    B_j x W_t with j + t = i (mod k).  The crossing total is
    (m-r)(n-s)(m-k+r)(n-k+s) / (4 k^2).
    """
    import numpy as np

    _check_ints(m=m, n=n, k=k)
    _check_page_count(k)  # before the loops over the k groups
    p, r = divmod(m, k)
    q, s = divmod(n, k)
    bsizes = [p + 1 if g >= k - r else p for g in range(k)]
    wsizes = [q + 1 if g >= k - s else q for g in range(k)]
    layout = layout_from_string("".join("1" * b + "0" * w for b, w in zip(bsizes, wsizes)))
    bgroup = np.repeat(np.arange(k), bsizes)
    wgroup = np.repeat(np.arange(k), wsizes)
    return BookDrawing(layout, k, (bgroup[:, None] + wgroup[None, :]) % k)


def block_cyclic_crossing_count(m: int, n: int, k: int) -> int:
    """Closed-form crossing total of ``block_cyclic(m, n, k)``: ``bounds.block_cyclic_bound``."""
    return block_cyclic_bound(k, m, n)
