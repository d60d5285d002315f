"""Distinct circular layouts of K_{m,n} up to rotation and reflection.

A circular drawing is determined by the cyclic black/white ordering, so the
distinct drawings are the orbits of binary strings (black = 1, white = 0)
under the dihedral group D_{m+n}.  Orbits are represented by the
lexicographically minimal string over all rotations of the string and of its
reversal.

The classes are generated one at a time in ascending order: fixed-density
necklace generation (Ruskey and Sawada) yields the strings that are least
among their rotations, one tree node per black vertex, and the reversal test
keeps the bracelets, those that are also no greater than any rotation of
their reversal (Sawada 2001).  A necklace with both colours starts with its
longest run of zeros and ends in '1', so it is a word of m blocks, each a
run of zeros and the '1' after it; the walk chooses one block per node.  The
reversal test compares only the rotations of the reversal that start with
the first block, since no other rotation can be smaller.  The one that
starts at the first block itself bounds the last two blocks, so the walk
never reaches most of the necklaces it rejects; the test still runs on each
leaf, as it alone decides the other rotations and the orbit size.  The work
and memory grow with the number of classes, not with 2**(m+n), and no word
length is capped.  ``canonical_form`` (brute force per string) and
``count_formula`` (Burnside's lemma, one fixed-point count per kind of group
element) stay as independent references.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd
from typing import Iterator

from .drawings import CircularLayout, _check_ints


@dataclass(frozen=True, slots=True)
class NecklaceClass:
    """One D_{m+n}-orbit: its minimal bitstring and the orbit's size.

    ``orbit_size`` counts the distinct linear strings in the orbit; it always
    divides 2(m+n).
    """

    canonical: str
    orbit_size: int


def canonical_form(s: str) -> str:
    """Lexicographic minimum over all rotations of s and of reversed s."""
    if not s:
        raise ValueError("empty string")
    best = s
    for t in (s, s[::-1]):
        for r in range(len(t)):
            cand = t[r:] + t[:r]
            if cand < best:
                best = cand
    return best


def _bracelets(m: int, n: int) -> Iterator[NecklaceClass]:
    """Orbit classes in ascending order, generated one at a time.

    A necklace with both symbols is ``0^a1 1 0^a2 1 ... 0^am 1``, its blocks
    a1..am summing to n, a1 the largest.  Words of equal content compare as
    their block sequences do, with a larger block the smaller symbol, so FKM
    generation (Ruskey and Sawada) runs on the block sequences under that
    order.  The next block ranges up to the block one period back: an equal
    one keeps the period p, a smaller one makes the prefix a Lyndon word of
    period t+1.  A full block sequence is a necklace iff p divides m, and the
    word's period is then (m+n)*p/m.  The first block ranges over
    ceil(n/m)..n; a later one takes at least the zeros that the blocks after
    it, each at most a1, cannot hold.

    The walk is depth first on an explicit stack, so word length is not
    limited by the recursion depth.  A stack entry, (block index, zeros in
    the block, period in blocks, zeros used), is a frontier state that roots
    an independent subtree, whose words come out in canonical order.  The
    pieces ``0^a 1`` live in one shared buffer.  The tails are forced and
    finished in place, with no stack node: the last block takes the zeros
    left, and once none are left every later block is a lone '1', which
    keeps the period iff the blocks one period back are zero too and
    otherwise makes the word a Lyndon word (period m).

    A necklace s is kept as a bracelet when it is no greater than any
    rotation of its reversal (Sawada 2001).  The orbit has p strings, p the
    word's period, or 2p when the reversal is not a rotation of s.  The test
    looks only at anchors, and is exact.  s starts with ``head``, its first
    block ``0^a1 1``.  The reversal has the same cyclic runs, so a rotation
    of it that is no greater than s starts with ``head`` too.  The anchors
    are the starts of ``head`` in the doubled reversal below p (the reversal
    also has period p); they never overlap, because ``head`` ends in its
    only '1'.  s is a bracelet iff no anchored rotation is less than s, and
    the reversal is a rotation of s iff one equals s.

    The anchor at the first block is the reversal read from there, with
    blocks a1, am, ..., a2; s is no greater than it only if (a2, ..., am)
    is no less than its reversal (am, ..., a2), comparing block sizes.  So
    the node that chooses a_(m-1), whose last block am = left - a_(m-1) is
    forced, starts its candidates at left - a2 (am <= a2), and one higher
    when a3 < left - a2 (am = a2 needs a_(m-1) <= a3).  Both cuts drop the
    low end of the ascending range only, so the order, ``top`` and the
    periods stay as they were.  The first cut needs a2 decided before that
    node (m > 3), the second a3 (m > 4); for m = 3 the bound is left out.
    A necklace that passes this one anchor still takes the full test.
    """
    _check_ints(m=m, n=n)
    size = m + n
    run = "0" * n + "1"  # run[n - a:] is the block 0^a 1
    ones = ["1"] * m
    blocks = [0] * m
    pieces = [""] * m  # the word is "".join(pieces)
    # (block index, zeros in the block, period in blocks, zeros used)
    stack = [(0, a, 1, a) for a in range(-(-n // m), n + 1)]
    while stack:
        t, a, p, used = stack.pop()
        blocks[t] = a
        pieces[t] = run[n - a:]
        t += 1
        left = n - used
        if not left:
            pieces[t:] = ones[t:]
            if any(blocks[t - p : min(t, m - p)]):
                p = m
        elif t < m - 1:
            # pushed in ascending block size, so the largest, the least word,
            # comes first; a range() over max() and min() timed 10% slower
            prev = blocks[t - p]
            if t == m - 2 and t > 1:
                # the reversal read from the first block: am <= a2, and
                # a_(m-1) <= a3 when am = a2 (a3 known once m > 4)
                b = left - blocks[1]
                if t > 2 and blocks[2] < b:
                    b += 1
            else:
                b = left - (m - 1 - t) * blocks[0]
            if b < 0:
                b = 0
            top = prev if prev < left else left
            if b <= top:
                while b < top:
                    stack.append((t, b, t + 1, used + b))
                    b += 1
                stack.append((t, top, p if top == prev else t + 1, used + top))
            continue
        else:
            prev = blocks[t - p]
            if left > prev:
                continue
            if left < prev:
                p = m
            pieces[t] = run[n - left:]
        if m % p:
            continue
        s = "".join(pieces)
        head = pieces[0]
        period = size * p // m
        twice = s[::-1] * 2
        orbit = 2 * period
        i = twice.find(head)
        while 0 <= i < period:
            c = twice[i : i + size]
            if c < s:
                break
            if c == s:
                orbit = period
            i = twice.find(head, i + len(head))
        else:
            yield NecklaceClass(s, orbit)


def necklace_classes(m: int, n: int) -> list[NecklaceClass]:
    """All orbit classes for m blacks and n whites, canonical strings ascending."""
    return list(_bracelets(m, n))


def layout_from_string(s: str) -> CircularLayout:
    """Layout for a black/white pattern; indices assigned clockwise from position 0."""
    seq = []
    bi = wi = 0
    for ch in s:
        if ch == "1":
            seq.append(("b", bi))
            bi += 1
        elif ch == "0":
            seq.append(("w", wi))
            wi += 1
        else:
            raise ValueError(f"pattern must be over '0'/'1', got {ch!r}")
    if bi == 0 or wi == 0:
        raise ValueError("pattern needs at least one black and one white vertex")
    return CircularLayout(tuple(seq), bi, wi)


def enumerate_layouts(m: int, n: int) -> Iterator[CircularLayout]:
    """One layout per dihedral orbit, in canonical (lexicographic) order, lazily."""
    for cls in _bracelets(m, n):
        yield layout_from_string(cls.canonical)


def _rotation_fixed_points(m: int, n: int) -> int:
    """Black/white orderings fixed by each rotation, summed over all L = m + n.

    The rotation by t has g = gcd(t, L) cycles of length e = L/g, and fixes
    C(g, m/e) orderings if e divides m, none otherwise.  The phi(e) rotations
    with cycles of length e fix as many, so the sum runs over the divisors e
    of gcd(m, n), found with phi(e) by trial division in O(sqrt(gcd(m, n)))
    steps.
    """
    divisors = [(1, 1)]  # (e, phi(e)) for the divisors e of gcd(m, n) found so far
    rest, p = gcd(m, n), 2
    while rest > 1:
        if p * p > rest:
            p = rest  # no factor up to its square root: rest is prime
        q = 1  # the power of p below the one being added
        while rest % p == 0:
            rest //= p
            divisors += [(e * q * p, phi * q * (p - 1)) for e, phi in divisors if e % p]
            q *= p
        p += 1
    return sum(phi * comb((m + n) // e, m // e) for e, phi in divisors)


def count_formula(m: int, n: int) -> int:
    """Number of distinct circular drawings of K_{m,n}, by Burnside's lemma:
    the mean, over the 2L elements of D_L (L = m + n), of the black/white
    orderings each one fixes, those with every cycle of it in one colour.

    The rotations fix ``_rotation_fixed_points(m, n)`` in all.  A reflection
    with f fixed positions and (L - f)/2 swapped pairs fixes the sum of
    C(f, b) * C((L - f)/2, (m - b)/2) over b <= min(f, m), m - b even, b
    being the blacks it fixes.  For odd L all L reflections have f = 1; for
    even L half have f = 2 and half f = 0.
    """
    _check_ints(m=m, n=n)
    size = m + n
    rotations = _rotation_fixed_points(m, n)
    # (how many reflections, the f positions each of them fixes)
    kinds = [(size, 1)] if size % 2 else [(size // 2, 2), (size // 2, 0)]
    reflections = sum(
        count * comb(f, b) * comb((size - f) // 2, (m - b) // 2)
        for count, f in kinds
        for b in range(m % 2, min(f, m) + 1, 2)
    )
    value, rem = divmod(rotations + reflections, 2 * size)
    if rem:
        raise ArithmeticError(f"orbit count for ({m},{n}) is not integral; formula bug")
    return value
