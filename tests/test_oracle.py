import pytest

from bookcross import oracle
from bookcross.bounds import exact_crossing_number, zarankiewicz
from bookcross.coloring import verify_positive_crossing
from bookcross.constructions import riskin_crossing_count
from bookcross.enumeration import count_formula, layout_from_string, necklace_classes
from bookcross.oracle import (
    OracleLimitError,
    OracleLimits,
    brute_force_nu,
    brute_force_pagenumber,
    brute_force_run,
)

from conftest import reference_layout_minimum

# the oracle instances of perfbench's `drawings`; (5, 6) and (4, 8) need 11+ vertices
BENCH_LIMITS = OracleLimits(max_vertices=12)
BENCH_INSTANCES = [(3, 3, 2), (5, 5, 2), (4, 6, 2), (3, 7, 2), (5, 6, 2), (4, 5, 3), (4, 7, 3), (4, 8, 3)]
# (value, nodes) of each; a node count moves with any change to the search tree
BENCH_RUNS = dict(zip(BENCH_INSTANCES, [(1, 11), (16, 7864), (12, 2616), (9, 1386), (24, 28054), (1, 176), (3, 2335), (4, 5796)]))


class TestBruteForceNu:
    def test_3_3_2_matches_zarankiewicz(self):
        assert brute_force_nu(3, 3, 2) == 1 == zarankiewicz(3, 3)

    def test_2_4_1_matches_riskin(self):
        assert brute_force_nu(2, 4, 1) == 2 == riskin_crossing_count(2, 4)

    def test_4_4_3_embeds(self):
        assert brute_force_nu(4, 4, 3) == 0

    def test_riskin_agreement_on_divisible_instances(self):
        for m, n in [(1, 5), (2, 2), (2, 4), (3, 3), (2, 6), (4, 4)]:
            assert brute_force_nu(m, n, 1) == riskin_crossing_count(m, n), (m, n)

    def test_monotone_in_k(self):
        values = [brute_force_nu(3, 3, k) for k in (1, 2, 3)]
        assert values == sorted(values, reverse=True)
        assert values[0] == 3 and values[-1] == 0

    def test_monotone_in_parts(self):
        assert brute_force_nu(2, 3, 2) <= brute_force_nu(2, 4, 2) <= brute_force_nu(2, 5, 2)
        assert brute_force_nu(2, 4, 2) <= brute_force_nu(3, 4, 2)

    def test_matches_exact_family_values(self):
        # k=2: K_{3,n}; k=3: K_{4,n} within the size limits, in both orders
        for n in range(2, 8):
            assert brute_force_nu(3, n, 2) == exact_crossing_number(2, n), n
            assert brute_force_nu(n, 3, 2) == exact_crossing_number(2, n), n
        for n in range(4, 7):
            assert brute_force_nu(4, n, 3) == exact_crossing_number(3, n), n
            assert brute_force_nu(n, 4, 3) == exact_crossing_number(3, n), n

    def test_stats_populated(self):
        run = brute_force_run(3, 3, 2)
        assert run.value == 1
        assert run.millis >= 0
        assert run.to_dict()["m"] == 3


class TestLookAheadBound:
    def test_layout_minima_match_reference(self):
        # best = m²n² exceeds every crossing count, so no incumbent prunes
        for size in range(2, 10):
            for m in range(1, size):
                n = size - m
                for cls in necklace_classes(m, n):
                    layout = layout_from_string(cls.canonical)
                    for k in (1, 2, 3):
                        expected, _ = reference_layout_minimum(layout, k, m * m * n * n, 10**9)
                        got, _ = oracle._layout_minimum(layout, k, m * m * n * n, 10**9)
                        assert got == expected, (cls.canonical, k)

    def test_layout_minima_match_reference_under_incumbent(self):
        # from the incumbent the bound prunes, so low[] is raised and lowered
        # back through cut branches as well as full ones
        for size in range(2, 10):
            for m in range(1, size):
                n = size - m
                for k in (1, 2, 3):
                    best = oracle._construction_incumbent(m, n, k)
                    for cls in necklace_classes(m, n):
                        layout = layout_from_string(cls.canonical)
                        expected, _ = reference_layout_minimum(layout, k, best, 10**9)
                        got, _ = oracle._layout_minimum(layout, k, best, 10**9)
                        assert got == expected, (cls.canonical, k)

    @pytest.mark.parametrize("m, n, k", BENCH_INSTANCES)
    def test_values_match_reference_run(self, monkeypatch, m, n, k):
        run = brute_force_run(m, n, k, BENCH_LIMITS)
        assert (run.value, run.nodes) == BENCH_RUNS[m, n, k]
        monkeypatch.setattr(oracle, "_layout_minimum", reference_layout_minimum)
        assert run.value == brute_force_run(m, n, k, BENCH_LIMITS).value

    @pytest.mark.parametrize("m, n, k, built, value", [(5, 5, 3, 4, 3)])
    def test_walk_beats_construction(self, m, n, k, built, value):
        assert oracle._construction_incumbent(m, n, k) == built
        assert brute_force_nu(m, n, k) == value

    def test_one_page_construction_is_optimal(self):
        for size in range(2, 11):
            for m in range(1, size):
                assert oracle._construction_incumbent(m, size - m, 1) == riskin_crossing_count(m, size - m)

    def test_node_count_and_budget(self):
        # 604,104 nodes before the bound
        nodes = 28_054
        assert brute_force_run(5, 6, 2, BENCH_LIMITS).nodes == nodes
        assert brute_force_run(5, 6, 2, OracleLimits(max_vertices=12, node_budget=nodes)).value == 24
        with pytest.raises(OracleLimitError):
            brute_force_run(5, 6, 2, OracleLimits(max_vertices=12, node_budget=nodes - 1))


class TestLimits:
    def test_vertex_limit(self):
        with pytest.raises(OracleLimitError):
            brute_force_nu(6, 6, 2)

    def test_page_limit(self):
        with pytest.raises(OracleLimitError):
            brute_force_nu(3, 3, 4)

    def test_custom_limits_allow_more(self):
        limits = OracleLimits(max_vertices=11, max_pages=4, node_budget=10**8)
        assert brute_force_nu(4, 5, 4, limits) == 0

    @pytest.mark.parametrize(
        "field, value", [("max_pages", 2.5), ("max_vertices", 10.0), ("node_budget", True)]
    )
    def test_non_integer_limit(self, field, value):
        # max_pages=2.5 used to build, and the oracle ran under it
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            OracleLimits(**{field: value})

    @pytest.mark.parametrize("m, n, k", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_nonpositive_instance(self, m, n, k):
        with pytest.raises(ValueError, match="must be positive"):
            brute_force_run(m, n, k)

    def test_node_budget_enforced(self):
        limits = OracleLimits(max_vertices=10, max_pages=3, node_budget=5)
        with pytest.raises(OracleLimitError):
            brute_force_nu(3, 4, 2, limits)


class TestPagenumber:
    def test_3_3(self):
        assert brute_force_pagenumber(3, 3) == 3

    def test_path_cases(self):
        assert brute_force_pagenumber(1, 6) == 1
        assert brute_force_pagenumber(2, 2) == 1

    def test_2_5_needs_two_pages(self):
        # K_{2,5} is not outerplanar but embeds in 2 pages
        assert brute_force_pagenumber(2, 5) == 2

    def test_5_5_needs_four_pages_and_stops_at_zero(self, monkeypatch):
        # pn(K_{5,5}) = floor(2*5/3) + 1: three pages force a crossing, and at
        # four the walk stops at the 3rd of 16 layouts, the first with 0
        limits = OracleLimits(max_pages=4)
        assert brute_force_pagenumber(5, 5, limits) == 4 == 2 * 5 // 3 + 1
        assert verify_positive_crossing(5, 5, 3).status == "proven"
        assert verify_positive_crossing(5, 5, 4).status == "refuted"
        calls = []
        walk = oracle._layout_minimum

        def counting(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(oracle, "_layout_minimum", counting)
        assert brute_force_run(5, 5, 4, limits).value == 0
        assert len(calls) == 3 and count_formula(5, 5) == 16

    def test_limit_exceeded(self):
        limits = OracleLimits(max_vertices=10, max_pages=2, node_budget=10**8)
        with pytest.raises(OracleLimitError):
            brute_force_pagenumber(4, 5, limits)
