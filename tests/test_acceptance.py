"""Acceptance suite: one test per headline claim, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The three large
verification runs of criterion 9 are gated behind BOOKCROSS_EXTENDED=1; they
complete in seconds here but are kept out of the default suite by design.
"""

import os
import time

import pytest

from bookcross.bounds import (
    exact_crossing_number,
    turan_lower,
    zarankiewicz,
)
from bookcross.coloring import (
    coloring_satisfies_cnf,
    conflict_graph,
    export_cnf,
    is_k_colorable,
    solve_dimacs,
    verify_positive_crossing,
)
from bookcross.constructions import (
    balanced_embedding,
    block_cyclic,
    block_cyclic_crossing_count,
    blowup,
    riskin_crossing_count,
)
from bookcross.drawings import count_crossings, is_balanced_embedding
from bookcross.enumeration import count_formula, enumerate_layouts, necklace_classes
from bookcross.oracle import brute_force_nu

from math import comb

from conftest import pairwise_crossing_total


def _report(name: str, started: float, limit_s: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit_s, f"{name} took {elapsed:.1f}s, budget {limit_s}s"
    print(f"PASS {name} [{elapsed:.1f}s]: {detail}")


def test_criterion_1_enumeration_counts():
    start = time.perf_counter()
    for (m, n), expected in [((4, 5), 10), ((5, 7), 38), ((7, 13), 1980)]:
        assert count_formula(m, n) == expected
        assert len(necklace_classes(m, n)) == expected
    mismatches = []
    for total in range(2, 21):
        for m in range(1, total):
            n = total - m
            if count_formula(m, n) != len(necklace_classes(m, n)):
                mismatches.append((m, n))
    assert not mismatches
    both = count_formula(6, 10)
    assert both == len(necklace_classes(6, 10)) == 280
    # 280 disagrees with a previously reported figure of 210 for this case;
    # the closed form and the direct enumeration agree with each other.
    print("NOTE criterion 1: (6,10) gives 280 by both routes; "
          "a previously reported value of 210 does not match either route")
    _report(
        "criterion 1 (enumeration counts)", start, 60,
        "formula = enumeration for all m+n <= 20; (4,5)=10, (5,7)=38, (7,13)=1980, (6,10)=280",
    )


def test_criterion_2_k45_reproduced_end_to_end():
    start = time.perf_counter()
    result = verify_positive_crossing(4, 5, 3)
    assert result.status == "proven"
    assert len(result.logs) == 10
    assert all(log.verdict == "not_colorable" for log in result.logs)
    drawn = count_crossings(blowup(balanced_embedding(3), 5)).total
    assert drawn == 1 == exact_crossing_number(3, 5)
    _report(
        "criterion 2 (3-page value of K_{4,5})", start, 60,
        "all 10 layouts uncolorable at k=3 and the blow-up drawing attains 1 crossing",
    )


def test_criterion_3_k57_reproduced():
    start = time.perf_counter()
    result = verify_positive_crossing(5, 7, 4)
    assert result.status == "proven"
    assert len(result.logs) == 38
    drawn = count_crossings(blowup(balanced_embedding(4), 7)).total
    assert drawn == 1 == exact_crossing_number(4, 7)
    _report(
        "criterion 3 (4-page value of K_{5,7})", start, 900,
        "all 38 layouts uncolorable at k=4 (exact search on 35-vertex graphs); blow-up attains 1",
    )


def test_criterion_4_balanced_embeddings_up_to_64():
    start = time.perf_counter()
    for k in range(1, 65):
        d = balanced_embedding(k)
        assert d.m == k + 1
        assert d.n == (k + 1) ** 2 // 4
        assert is_balanced_embedding(d), k
    _report(
        "criterion 4 (balanced embeddings)", start, 60,
        "k = 1..64 all yield zero-crossing balanced embeddings of K_{k+1, floor((k+1)^2/4)}",
    )


def test_criterion_5_exact_family_tightness_to_500():
    start = time.perf_counter()
    checked = 0
    for k in range(2, 7):
        base = balanced_embedding(k)
        ell = base.n
        for n in range(ell, 501):
            counted = count_crossings(blowup(base, n)).total
            expected = exact_crossing_number(k, n)
            assert counted == expected == turan_lower(k, n, ell), (k, n)
            checked += 1
    _report(
        "criterion 5 (exact-value tightness)", start, 60,
        f"drawing count = clique-partition bound = closed form at {checked} (k, n) points",
    )


def test_criterion_6_block_cyclic_grid():
    start = time.perf_counter()
    for k in range(1, 9):
        for m in range(1, 41):
            for n in range(1, 41):
                total = count_crossings(block_cyclic(m, n, k)).total
                assert total == block_cyclic_crossing_count(m, n, k), (m, n, k)
                assert total * k * k <= comb(m, 2) * comb(n, 2)
                if k == 2:
                    assert total == zarankiewicz(m, n), (m, n)
    _report(
        "criterion 6 (block-cyclic grid)", start, 60,
        "count = closed form for k <= 8, m,n <= 40; equals Z(m,n) at k = 2",
    )


def test_criterion_7_oracle_equivalence():
    start = time.perf_counter()
    assert brute_force_nu(3, 3, 2) == 1 == zarankiewicz(3, 3)
    assert brute_force_nu(2, 4, 1) == 2 == riskin_crossing_count(2, 4)
    assert brute_force_nu(4, 4, 3) == 0
    assert brute_force_nu(3, 3, 1) == 3 == riskin_crossing_count(3, 3)
    _report(
        "criterion 7 (oracle equivalence)", start, 600,
        "brute force reproduces the 1-page, 2-page and embedding facts on tiny instances",
    )


def test_criterion_8_cnf_soundness():
    start = time.perf_counter()
    unsat = 0
    for layout in enumerate_layouts(4, 5):
        g = conflict_graph(layout)
        cnf = export_cnf(g, 3)
        assert solve_dimacs(cnf) is None
        unsat += 1
    assert unsat == 10
    satisfied = 0
    for layout in enumerate_layouts(4, 4):
        g = conflict_graph(layout)
        res = is_k_colorable(g, 3)
        if res.status == "colorable":
            assert coloring_satisfies_cnf(export_cnf(g, 3), res.assignment, 3)
            satisfied += 1
    assert satisfied >= 1
    _report(
        "criterion 8 (CNF soundness)", start, 300,
        f"all 10 exported k=3 formulas unsatisfiable by internal DPLL; "
        f"{satisfied} colorable witnesses satisfy their CNF",
    )


@pytest.mark.skipif(
    not os.environ.get("BOOKCROSS_EXTENDED"),
    reason="extended verification; enable with BOOKCROSS_EXTENDED=1",
)
def test_criterion_9_extended_pagenumber_runs():
    start = time.perf_counter()
    r1 = verify_positive_crossing(6, 10, 5)
    assert r1.status == "proven"
    assert len(r1.logs) == 280
    r2 = verify_positive_crossing(7, 13, 6)
    assert r2.status == "proven"
    assert len(r2.logs) == 1980
    # the search at a million nodes: the DSATUR order, the clique pre-coloring
    # and the first-use color rule fix the total and the witness
    r3 = verify_positive_crossing(8, 8, 6)
    assert r3.status == "refuted"
    assert sum(log.nodes for log in r3.logs) == 1301588
    assert count_crossings(r3.witness).total == 0
    assert pairwise_crossing_total(r3.witness) == 0
    _report(
        "criterion 9 (extended verifications)", start, 4 * 3600,
        "K_{6,10} at k=5 over 280 layouts and K_{7,13} at k=6 over 1980 layouts both proven; "
        "K_{8,8} at k=6 refuted after 1,301,588 search nodes by a witness with 0 crossings",
    )
