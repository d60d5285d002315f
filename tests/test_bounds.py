import warnings
from fractions import Fraction
from math import comb

import mpmath
import numpy as np
import pytest

from bookcross.bounds import (
    BoundQuery,
    BoundValue,
    asymptotic_bounds,
    block_cyclic_bound,
    consistency_scan,
    exact_crossing_number,
    family_rows,
    general_lower,
    general_rows,
    multiplanar_lower_even,
    nonembeddable_width,
    riskin_value,
    turan_lower,
    zarankiewicz,
)
from bookcross.coloring import conflict_graph
from bookcross.constructions import balanced_embedding, block_cyclic, blowup
from bookcross.drawings import count_crossings
from bookcross.enumeration import enumerate_layouts
from bookcross.oracle import brute_force_nu


class TestZarankiewicz:
    def test_3_3(self):
        assert zarankiewicz(3, 3) == 1 == brute_force_nu(3, 3, 2)

    def test_star(self):
        for n in (1, 5, 12):
            assert zarankiewicz(1, n) == 0

    def test_6_6_matches_block_cyclic(self):
        assert zarankiewicz(6, 6) == 36
        assert count_crossings(block_cyclic(6, 6, 2)).total == 36


class TestRiskinValue:
    def test_2_4(self):
        bv = riskin_value(2, 4)
        assert bv.valid and bv.value == 2 == brute_force_nu(2, 4, 1)

    def test_star(self):
        bv = riskin_value(1, 7)
        assert bv.valid and bv.value == 0

    def test_3_3(self):
        bv = riskin_value(3, 3)
        assert bv.valid and bv.value == 3 == brute_force_nu(3, 3, 1)

    def test_invalid_when_not_divisible(self):
        bv = riskin_value(3, 4)
        assert bv.valid and bv.value == 8 == brute_force_nu(3, 4, 1)

    @pytest.mark.parametrize("m, n, value", [(2, 5, 4), (4, 6, 46), (6, 4, 46), (3, 7, 31)])
    def test_matches_oracle_when_not_divisible(self, m, n, value):
        assert riskin_value(m, n).value == value == brute_force_nu(m, n, 1)

    def test_matches_least_crossings_over_all_layouts(self):
        # one page: a layout's crossings are its conflict graph's edges
        for size in range(2, 17):
            for m in range(1, size):
                least = min(conflict_graph(lay).edge_count for lay in enumerate_layouts(m, size - m))
                assert riskin_value(m, size - m) == BoundValue(least, True, "riskin_value"), (m, size - m)

    def test_matches_window_sums(self):
        # the O(m) form of the proof: C(m,2)C(n,2) minus half the best sum of
        # f(A) = A(n - A) over the d-windows, e windows of a + 1 whites and m - e of a
        for m in range(1, 80):
            for n in range(80):
                windows = 0
                for d in range(1, m):
                    a, e = divmod(d * n, m)
                    windows += e * (a + 1) * (n - a - 1) + (m - e) * a * (n - a)
                assert riskin_value(m, n).value == comb(m, 2) * comb(n, 2) - windows // 2, (m, n)

    def test_riskin_formula_kept_when_divisible(self):
        for m in range(1, 13):
            for n in range(0, 30, m):
                assert riskin_value(m, n).value * 12 == n * (m - 1) * (2 * m * n - 3 * m - n), (m, n)


class TestTuranLower:
    def test_3_5_4(self):
        assert turan_lower(3, 5, 4) == 1

    def test_zero_when_n_at_most_s(self):
        for n in range(1, 7):
            assert turan_lower(3, n, 6) == 0

    def test_4_13_6(self):
        assert turan_lower(4, 13, 6) == 8

    def test_bad_s(self):
        with pytest.raises(ValueError):
            turan_lower(3, 5, 0)


class TestExactCrossingNumber:
    def test_3_5(self):
        assert exact_crossing_number(3, 5) == 1

    def test_matches_zarankiewicz_at_k2(self):
        for n in range(1, 40):
            assert exact_crossing_number(2, n) == zarankiewicz(3, n)

    def test_4_7(self):
        assert exact_crossing_number(4, 7) == 1

    def test_zero_iff_below_threshold(self):
        for k in range(2, 7):
            ell = (k + 1) ** 2 // 4
            for n in range(1, 3 * ell):
                assert (exact_crossing_number(k, n) == 0) == (n <= ell), (k, n)

    def test_k_range_enforced(self):
        for k in (1, 7, 0):
            with pytest.raises(ValueError):
                exact_crossing_number(k, 5)

    def test_triple_equality_with_construction(self):
        for k in range(2, 7):
            base = balanced_embedding(k)
            ell = base.n
            for n in range(ell, ell + 25):
                counted = count_crossings(blowup(base, n)).total
                assert counted == turan_lower(k, n, ell) == exact_crossing_number(k, n)


class TestAsymptoticBounds:
    def test_strictly_ordered(self):
        lo, hi = asymptotic_bounds(16, 10**4)
        assert lo < hi

    def test_4_100_values(self):
        lo, hi = asymptotic_bounds(4, 100)
        assert hi == Fraction(2 * 100 * 100, 16) + Fraction(100, 2) == 1300
        # denominator uses ceil(2000 * 4^(7/4)) = 22628
        assert lo == Fraction(20000, 16 + 22628) - 100

    def test_lower_never_overstated(self):
        mpmath.mp.dps = 60
        for k in (2, 3, 5, 7, 16):
            for n in (10, 1000):
                lo, _ = asymptotic_bounds(k, n)
                true_lo = 2 * n * n / (k * k + 2000 * mpmath.power(k, mpmath.mpf(7) / 4)) - n
                assert mpmath.mpf(lo.numerator) / lo.denominator <= true_lo + mpmath.mpf("1e-30")

    def test_upper_ratio_tends_to_one(self):
        k, n = 16, 10**6
        _, hi = asymptotic_bounds(k, n)
        ratio = hi / Fraction(2 * n * n, k * k)
        assert 1 < ratio < Fraction(10001, 10000)

    @pytest.mark.parametrize("k, n", [(0, 5), (3, 0)])
    def test_nonpositive_rejected(self, k, n):
        with pytest.raises(ValueError, match=f"{'k' if k < 1 else 'n'} must be positive, got 0"):
            asymptotic_bounds(k, n)

    def test_sandwiches_exact_values(self):
        for k in range(2, 7):
            for n in range(1, 200):
                lo, hi = asymptotic_bounds(k, n)
                v = exact_crossing_number(k, n)
                assert lo < v <= hi, (k, n)


class TestMultiplanarLowerEven:
    def test_4_24(self):
        assert multiplanar_lower_even(4, 24) == 36

    def test_floor_kills_small_n(self):
        assert multiplanar_lower_even(4, 11) == 0

    def test_4_12_exceeds_exact_value_as_printed(self):
        # verbatim formula value; the consistency scan flags it against the exact 6
        assert multiplanar_lower_even(4, 12) == 12
        assert exact_crossing_number(4, 12) == 6

    def test_rejects_odd_k(self):
        with pytest.raises(ValueError):
            multiplanar_lower_even(3, 10)


class TestGeneralLower:
    def test_4_11_11(self):
        bv = general_lower(4, 11, 11)
        assert bv.valid and bv.value == Fraction(comb(11, 2) ** 2, 75)

    def test_below_range_invalid(self):
        assert not general_lower(4, 5, 5).valid

    def test_6_17_18(self):
        bv = general_lower(6, 17, 18)
        assert bv.valid
        assert bv.value == Fraction(comb(17, 2) * comb(18, 2), 192)


class TestBlockCyclicBound:
    def test_3_4_5(self):
        assert block_cyclic_bound(3, 4, 5) == 2 == count_crossings(block_cyclic(4, 5, 3)).total

    def test_diagonal(self):
        for k in (1, 2, 5, 9):
            assert block_cyclic_bound(k, k, k) == 0

    def test_2_6_6(self):
        assert block_cyclic_bound(2, 6, 6) == 36 == zarankiewicz(6, 6)

    def test_dominated_by_pair_bound(self):
        for k in range(1, 9):
            for m in range(1, 20):
                for n in range(1, 20):
                    assert block_cyclic_bound(k, m, n) * k * k <= comb(m, 2) * comb(n, 2)


class TestNonembeddableWidth:
    def test_k1(self):
        assert nonembeddable_width(1) == 501
        with pytest.raises(ValueError, match="k must be positive"):
            nonembeddable_width(0)

    def test_matches_high_precision_ceiling(self):
        mpmath.mp.dps = 60
        for k in range(1, 40):
            target = mpmath.mpf(k * k) / 4 + 500 * mpmath.power(k, mpmath.mpf(7) / 4)
            assert nonembeddable_width(k) == int(mpmath.ceil(target)), k

    def test_monotone(self):
        widths = [nonembeddable_width(k) for k in range(1, 30)]
        assert all(a < b for a, b in zip(widths, widths[1:]))


class TestNumpyIntegers:
    """A bound given numpy integers computes in Python ints: an int64 or int32
    product used to wrap around with only a RuntimeWarning."""

    CALLS = [
        (zarankiewicz, (200_000, 200_000)),
        (riskin_value, (200_000, 200_001)),
        (turan_lower, (6, 10**6, 12)),
        (exact_crossing_number, (6, 10**6)),
        (asymptotic_bounds, (6, 10**6)),
        (multiplanar_lower_even, (6, 10**6)),
        (general_lower, (6, 10**6, 10**6)),
        (block_cyclic_bound, (2, 10**6, 10**6)),
        (nonembeddable_width, (300,)),
        (family_rows, (6, 10**6)),
        (general_rows, (2, 10**6, 10**6)),
    ]

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize("bound, args", CALLS, ids=[f.__name__ for f, _ in CALLS])
    def test_equals_the_python_int_result(self, bound, args, dtype):
        want = bound(*args)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bound(*map(dtype, args))
        assert got == want
        assert repr(got) == repr(want)  # no numpy scalar inside the result

    def test_block_cyclic_bound_of_a_million(self):
        assert block_cyclic_bound(2, np.int64(10**6), 10**6) == 62_499_750_000_250_000_000_000
        assert zarankiewicz(np.int64(200_000), 200_000) == zarankiewicz(200_000, 200_000)


class TestBoundQuery:
    def test_derived_values(self):
        q = BoundQuery(4, 5, 13)
        assert q.ell == 6
        assert q.q == 1
        assert q.r_mod_k == 1
        assert q.s_mod_k == 1

    def test_integer_rule(self):
        with pytest.raises(ValueError, match="k must be an integer, got 2.5"):
            BoundQuery(2.5, -3, "x")
        with pytest.raises(ValueError, match="k must be positive, got 0"):
            BoundQuery(0, 5, 13)
        with pytest.raises(ValueError, match="m must be non-negative, got -3"):
            BoundQuery(4, -3, 13)
        with pytest.raises(ValueError, match="n must be an integer, got 'x'"):
            BoundQuery(4, 5, "x")
        with pytest.raises(ValueError, match="n must be an integer, got True"):
            BoundQuery(4, 5, True)

    def test_numpy_arguments_give_python_ints(self):
        q = BoundQuery(np.int64(4), 5, 13)
        assert type(q.k) is int and type(q.ell) is int and q.ell == 6
        assert q == BoundQuery(4, 5, 13)


class TestConsistencyScan:
    def test_k3_clean_and_tight(self):
        report = consistency_scan([3], range(1, 501))
        assert report.violations == ()
        for n in range(4, 501):
            rows = {r.source: r for r in report.rows if r.n == n}
            assert rows["turan_lower"].value == rows["exact_crossing_number"].value
            if n >= 4:
                assert rows["blowup_drawing"].value == rows["exact_crossing_number"].value

    def test_k4_flags_the_printed_formula(self):
        report = consistency_scan([4], range(1, 30))
        flagged = {
            (v.k, v.n)
            for v in report.violations
            if v.lower_source == "multiplanar_lower_even"
        }
        assert (4, 12) in flagged
        assert (4, 13) in flagged

    def test_k2_turan_consistent_with_exact(self):
        report = consistency_scan([2], range(1, 60))
        for v in report.violations:
            assert v.lower_source == "multiplanar_lower_even"

    def test_exact_equals_blowup_in_scan(self):
        report = consistency_scan([5], range(9, 60))
        for n in range(9, 60):
            rows = {r.source: r for r in report.rows if r.n == n}
            assert rows["blowup_drawing"].value == rows["exact_crossing_number"].value
