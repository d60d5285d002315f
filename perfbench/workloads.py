"""Benchmark workloads: inputs drawn from a seed, each answer checked.

A workload pass is a list of items.  Each item calls public bookcross
functions and checks the answer against a reference that does not share the
code under test: closed forms (``count_formula``, ``exact_crossing_number``,
``block_cyclic_bound``, ``zarankiewicz``), binomial orbit totals, and a
pairwise ``edges_cross`` recount.  An item that raises or returns a wrong
answer is a failed check.

Why these workloads:

* ``prove``    K_{7,13} at k=6, the paper's largest proof.  Every one of the
  1980 layouts is visited and is uncolorable; the clique bound decides most.
* ``refute``   K_{7,12} at k=6.  Colorable layouts exist (the first at
  canonical index 832 of 1368), so early exit would show here and not in
  ``prove``; the DSATUR search does about four times the nodes of ``prove``.
* ``drawings`` constructions, the crossing kernel and the brute-force oracle,
  never the coloring layers.  Points are stratified over the ranges of the
  acceptance criteria 4-7, with antithetic pairs within each stratum, so the
  cost of a pass barely depends on the seed.
* ``enumerate`` one cold necklace table per word length 18..23; distinct
  lengths, so the per-length cache never serves a hit.  The seed picks, per
  length, between a balanced split (m, n) with m < n and its mirror (n, m):
  both select C(m+n, m) words of the same table, so the inputs change with
  the seed and the cost of a pass does not.

Calls go through the ``bookcross`` package attributes at call time, so the
spans installed by ``tracing.install`` see them.
"""

from __future__ import annotations

import random
from math import comb
from typing import Callable

import bookcross as bc
from bookcross.oracle import OracleLimits

# (m, n, k, expected layout count); the count is also checked by count_formula.
PROVE = {False: (7, 13, 6, 1980), True: (4, 5, 3, 10)}
REFUTE = {False: (7, 12, 6, 1368), True: (4, 4, 3, 8)}

# (5, 6) and (4, 8) need more vertices than the default oracle limit of 10.
ORACLE_LIMITS = OracleLimits(max_vertices=12)
ORACLE_K2 = ((3, 3), (5, 5), (4, 6), (3, 7), (5, 6))  # against zarankiewicz
ORACLE_K3 = ((4, 5), (4, 7), (4, 8))  # against exact_crossing_number(3, n)

Item = Callable[[], bool]


def prove_item(m: int, n: int, k: int, expected: int, jobs: int) -> Item:
    def run() -> bool:
        result = bc.verify_positive_crossing(m, n, k, jobs=jobs)
        logs = result.logs
        return (
            result.status == "proven"
            and len(logs) == expected == bc.count_formula(m, n)
            and len({log.canonical for log in logs}) == expected
            and all(log.verdict == "not_colorable" for log in logs)
        )

    return run


def _pairwise_crossings(d: bc.BookDrawing) -> int:
    by_page: dict[int, list[tuple[int, int]]] = {}
    for edge, page in d.pages.items():
        by_page.setdefault(page, []).append(edge)
    total = 0
    for edges in by_page.values():
        for a in range(len(edges)):
            for b in range(a + 1, len(edges)):
                total += bc.edges_cross(d.layout, edges[a], edges[b])
    return total


def refute_item(m: int, n: int, k: int, expected: int, jobs: int) -> Item:
    def run() -> bool:
        result = bc.verify_positive_crossing(m, n, k, jobs=jobs)
        logs = result.logs
        w = result.witness
        colorable = {log.canonical for log in logs if log.verdict == "colorable"}
        return (
            result.status == "refuted"
            and len(logs) == expected == bc.count_formula(m, n)
            and w is not None
            and (w.m, w.n, w.k, len(w.pages)) == (m, n, k, m * n)
            and bc.canonical_form(w.layout.to_bitstring()) in colorable
            and bc.count_crossings(w).total == 0
            and _pairwise_crossings(w) == 0
        )

    return run


def balanced_item(k: int) -> Item:
    def run() -> bool:
        d = bc.balanced_embedding(k)
        return (
            (d.m, d.n, d.k) == (k + 1, (k + 1) ** 2 // 4, k)
            and bc.count_crossings(d).total == 0
            and all(sorted(bc.page_loads(d, w)) == [1] * (k - 1) + [2] for w in range(d.n))
        )

    return run


def blowup_item(k: int, n: int) -> Item:
    def run() -> bool:
        d = bc.blowup(bc.balanced_embedding(k), n)
        return bc.count_crossings(d).total == bc.exact_crossing_number(k, n)

    return run


def block_cyclic_item(m: int, n: int, k: int) -> Item:
    def run() -> bool:
        total = bc.count_crossings(bc.block_cyclic(m, n, k)).total
        return (
            total == bc.block_cyclic_bound(k, m, n)
            and total * k * k <= comb(m, 2) * comb(n, 2)
            and (k != 2 or total == bc.zarankiewicz(m, n))
        )

    return run


def oracle_item(m: int, n: int, k: int, expected: int) -> Item:
    def run() -> bool:
        return bc.brute_force_run(m, n, k, ORACLE_LIMITS).value == expected

    return run


def necklace_item(m: int, n: int) -> Item:
    def run() -> bool:
        classes = bc.necklace_classes(m, n)
        width = m + n
        return (
            len(classes) == bc.count_formula(m, n)
            and sum(c.orbit_size for c in classes) == comb(width, m)
            and all((2 * width) % c.orbit_size == 0 for c in classes)
            and all(len(c.canonical) == width and c.canonical.count("1") == m for c in classes)
            and all(a.canonical < b.canonical for a, b in zip(classes, classes[1:]))
        )

    return run


def _antithetic(rng: random.Random, lo: int, hi: int, strata: int) -> list[int]:
    """Two points mirrored inside each of ``strata`` equal slices of [lo, hi]."""
    points: list[int] = []
    bounds = [lo + (hi - lo + 1) * s // strata for s in range(strata + 1)]
    for a, b in zip(bounds, bounds[1:]):
        u = rng.randrange(b - a)
        points.extend(sorted({a + u, b - 1 - u}))
    return points


def _stratified(rng: random.Random, lo: int, hi: int, strata: int) -> list[int]:
    """One point inside each of ``strata`` equal slices of [lo, hi]."""
    bounds = [lo + (hi - lo + 1) * s // strata for s in range(strata + 1)]
    return [rng.randrange(a, b) for a, b in zip(bounds, bounds[1:])]


def drawings_items(rng: random.Random, smoke: bool) -> list[Item]:
    if smoke:
        items = [balanced_item(rng.randint(1, 6)), blowup_item(3, rng.randint(4, 20))]
        items.append(block_cyclic_item(rng.randint(1, 10), rng.randint(1, 10), rng.randint(1, 4)))
        items.append(oracle_item(3, 3, 2, bc.zarankiewicz(3, 3)))
        items.append(oracle_item(4, 5, 3, bc.exact_crossing_number(3, 5)))
        return items
    items = [balanced_item(k) for k in _antithetic(rng, 1, 64, 8)]
    for k in range(2, 7):
        items += [blowup_item(k, n) for n in _antithetic(rng, (k + 1) ** 2 // 4, 500, 8)]
    for k in range(1, 9):
        for m in _stratified(rng, 1, 40, 4):
            items += [block_cyclic_item(m, n, k) for n in _stratified(rng, 1, 40, 4)]
    items += [oracle_item(m, n, 2, bc.zarankiewicz(m, n)) for m, n in ORACLE_K2]
    items += [oracle_item(m, n, 3, bc.exact_crossing_number(3, n)) for m, n in ORACLE_K3]
    return items


def enumerate_items(rng: random.Random, smoke: bool) -> list[Item]:
    lengths = range(8, 11) if smoke else range(18, 24)
    items = []
    for width in lengths:
        low = (width - 1) // 2
        m = rng.choice((low, width - low))
        items.append(necklace_item(m, width - m))
    return items


def build(workload: str, seed: int, jobs: int = 1, smoke: bool = False) -> list[Item]:
    """The checked items of one pass; the same seed gives the same items."""
    rng = random.Random(seed)
    if workload == "prove":
        return [prove_item(*PROVE[smoke], jobs)]
    if workload == "refute":
        return [refute_item(*REFUTE[smoke], jobs)]
    if workload == "drawings":
        return drawings_items(rng, smoke)
    if workload == "enumerate":
        return enumerate_items(rng, smoke)
    raise ValueError(f"unknown workload {workload!r}")
