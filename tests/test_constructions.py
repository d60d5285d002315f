import math
import random
import warnings

import pytest

from bookcross.bounds import block_cyclic_bound, riskin_value, turan_lower, zarankiewicz
from bookcross import constructions
from bookcross.constructions import (
    BalancedParams,
    ConstructionError,
    balanced_embedding,
    balanced_parameters,
    block_cyclic,
    block_cyclic_crossing_count,
    blowup,
    blowup_crossing_count,
    riskin_crossing_count,
    riskin_drawing,
)
from bookcross.drawings import BookDrawing, count_crossings, is_balanced_embedding
from bookcross.enumeration import enumerate_layouts, layout_from_string


def one_page_total(layout):
    pages = {(i, j): 0 for i in range(layout.m) for j in range(layout.n)}
    return count_crossings(BookDrawing(layout, 1, pages)).total


class TestRiskin:
    def test_2_4_matches_minimum_over_all_layouts(self):
        # independent oracle: exhaust every circular layout of K_{2,4}
        minimum = min(one_page_total(lay) for lay in enumerate_layouts(2, 4))
        d = riskin_drawing(2, 4)
        assert count_crossings(d).total == 2 == minimum == riskin_crossing_count(2, 4)

    def test_3_3(self):
        minimum = min(one_page_total(lay) for lay in enumerate_layouts(3, 3))
        assert count_crossings(riskin_drawing(3, 3)).total == 3 == minimum
        assert riskin_crossing_count(3, 3) == 3

    def test_star(self):
        assert count_crossings(riskin_drawing(1, 5)).total == 0

    def test_formula_matches_count_when_divisible(self):
        for m, n in [(1, 4), (2, 2), (2, 6), (3, 6), (4, 4), (2, 10)]:
            assert count_crossings(riskin_drawing(m, n)).total == riskin_crossing_count(m, n)

    def test_uneven_distribution_warns(self):
        minimum = min(one_page_total(lay) for lay in enumerate_layouts(3, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = riskin_drawing(3, 4)
        assert (d.m, d.n, d.k) == (3, 4, 1)
        assert count_crossings(d).total == 8 == minimum

    def test_attains_closed_form_for_every_m_n(self):
        for m in range(1, 41):
            for n in range(1, 41):
                assert count_crossings(riskin_drawing(m, n)).total == riskin_value(m, n).value, (m, n)

    @pytest.mark.parametrize("m, n, minimum", [(4, 6, 46), (6, 4, 46), (7, 10, 549), (9, 13, 1688)])
    def test_exact_minima_when_not_divisible(self, m, n, minimum):
        # the least crossing counts over all layouts
        assert count_crossings(riskin_drawing(m, n)).total == minimum == riskin_crossing_count(m, n)

    def test_divisible_word_unchanged(self):
        for m in range(1, 13):
            for n in range(m, 30, m):
                assert riskin_drawing(m, n).layout == layout_from_string(("1" + "0" * (n // m)) * m), (m, n)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            riskin_drawing(0, 3)


class TestBalancedEmbedding:
    def test_parameters(self):
        for k in range(1, 30):
            s, t = balanced_parameters(k)
            assert t in (s, s + 1)
            assert s + t == k + 1
            assert s * t == (k + 1) ** 2 // 4

    def test_params_type(self):
        p = BalancedParams.for_pages(6)
        assert (p.s, p.t, p.white_count) == (3, 4, 12)
        assert list(p.white_block(1)) == [3, 4, 5]
        assert list(p.white_block(5)) == [3, 4, 5]  # block index mod t
        with pytest.raises(ValueError):
            BalancedParams(4, 2, 4)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 10, 15, 16])
    def test_balanced_and_crossing_free(self, k):
        d = balanced_embedding(k)
        assert d.m == k + 1
        assert d.n == (k + 1) ** 2 // 4
        assert count_crossings(d).total == 0
        assert is_balanced_embedding(d)

    def test_k1_shape(self):
        d = balanced_embedding(1)
        assert (d.m, d.n, d.k) == (2, 1, 1)
        assert count_crossings(d).total == 0

    def test_known_figures(self):
        d5 = balanced_embedding(5)
        assert (d5.m, d5.n) == (6, 9)
        d6 = balanced_embedding(6)
        assert (d6.m, d6.n) == (7, 12)

    def test_k4_literals(self):
        d = balanced_embedding(4)
        assert d.layout.to_bitstring() == "11100100100"
        assert d.page_array.tolist() == [
            [0, 0, 1, 1, 2, 2],
            [0, 1, 1, 2, 2, 3],
            [1, 1, 2, 2, 3, 3],
            [2, 2, 3, 3, 0, 0],
            [3, 3, 0, 0, 1, 1],
        ]

    def test_failed_validation_raises(self, monkeypatch):
        monkeypatch.setattr(constructions, "is_balanced_embedding", lambda d: False)
        with pytest.raises(ConstructionError):
            balanced_embedding(3)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            balanced_embedding(0)


class TestBlowup:
    def test_k45_has_one_crossing(self):
        d = blowup(balanced_embedding(3), 5)
        assert (d.m, d.n, d.k) == (4, 5, 3)
        assert count_crossings(d).total == 1 == blowup_crossing_count(3, 5)

    def test_k3_n8(self):
        d = blowup(balanced_embedding(3), 8)
        assert count_crossings(d).total == 4 == blowup_crossing_count(3, 8)

    def test_k4_n7(self):
        d = blowup(balanced_embedding(4), 7)
        assert count_crossings(d).total == 1 == blowup_crossing_count(4, 7)

    def test_identity_blowup(self):
        base = balanced_embedding(3)
        assert blowup(base, base.n) == base

    def test_counts_match_closed_form(self):
        rng = random.Random(5)
        for k in (2, 3, 4, 5):
            base = balanced_embedding(k)
            for _ in range(4):
                n = rng.randint(base.n, base.n * 6)
                d = blowup(base, n)
                assert count_crossings(d).total == blowup_crossing_count(k, n), (k, n)

    def test_rejects_unbalanced_base(self):
        with pytest.raises(ValueError):
            blowup(block_cyclic(4, 4, 3), 8)

    def test_rejects_shrinking(self):
        with pytest.raises(ValueError):
            blowup(balanced_embedding(3), 3)


class TestBlockCyclic:
    def test_4_5_3(self):
        d = block_cyclic(4, 5, 3)
        assert count_crossings(d).total == 2 == block_cyclic_crossing_count(4, 5, 3)

    def test_matches_zarankiewicz_at_two_pages(self):
        d = block_cyclic(6, 6, 2)
        assert count_crossings(d).total == 36 == zarankiewicz(6, 6)

    def test_diagonal_is_crossing_free(self):
        for k in (1, 2, 3, 5, 8):
            assert count_crossings(block_cyclic(k, k, k)).total == 0
            assert block_cyclic_crossing_count(k, k, k) == 0

    def test_counts_match_closed_form_grid(self):
        for k in (1, 2, 3, 4):
            for m in range(1, 8):
                for n in range(1, 8):
                    d = block_cyclic(m, n, k)
                    total = count_crossings(d).total
                    assert total == block_cyclic_crossing_count(m, n, k), (m, n, k)
                    assert total * k * k <= math.comb(m, 2) * math.comb(n, 2)

    def test_group_sizes_smaller_first(self):
        d = block_cyclic(5, 7, 3)  # blacks 1,2,2; whites 2,2,3
        bits = d.layout.to_bitstring()
        assert bits == "100110011000"

    def test_bad_input(self):
        with pytest.raises(ValueError):
            block_cyclic(3, 3, 0)
        with pytest.raises(ValueError):
            block_cyclic(0, 3, 2)


def outcome(f, *args):
    """Return value of f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc)


class TestClosedFormDelegates:
    def test_equal_bounds_formulas_and_raise_alike(self):
        for m in range(0, 13):
            for n in range(0, 30):
                if m == 0:
                    expected = ValueError
                else:
                    exact = riskin_value(m, n)
                    expected = exact.value if exact.valid else ValueError
                assert outcome(riskin_crossing_count, m, n) == expected, (m, n)
                for k in range(-1, 9):
                    assert outcome(block_cyclic_crossing_count, m, n, k) == outcome(
                        block_cyclic_bound, k, m, n
                    ), (m, n, k)
        for k in range(-1, 9):
            for n in range(0, 60):
                if k < 1:
                    expected = ValueError
                else:
                    s, t = balanced_parameters(k)
                    expected = turan_lower(k, n, s * t) if n >= s * t else ValueError
                assert outcome(blowup_crossing_count, k, n) == expected, (k, n)
