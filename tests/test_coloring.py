import copy
import dataclasses
import itertools
import pickle
import random
import sys
import tracemalloc
from dataclasses import replace

import pytest

from bookcross import coloring
from bookcross.coloring import (
    BUDGET_EXCEEDED,
    COLORABLE,
    INCONCLUSIVE,
    NOT_COLORABLE,
    ConflictGraph,
    LayoutLog,
    _clique_sweep,
    _crossing_chain,
    _exact_max_clique,
    _lcs_length,
    check_layout,
    clique_lower_bound,
    coloring_satisfies_cnf,
    coloring_to_drawing,
    conflict_graph,
    export_cnf,
    find_clique,
    is_k_colorable,
    solve_dimacs,
    verify_positive_crossing,
)
from bookcross.drawings import CircularLayout, count_crossings, edges_cross, to_json
from bookcross.enumeration import count_formula, enumerate_layouts, layout_from_string

from conftest import (
    random_layout,
    reference_conflict_graph,
    reference_crossing_chain,
    reference_cut_lengths,
    reference_is_k_colorable,
)

# to_json of the K_{6,8} refutation at k=5: the first colorable layout in
# canonical order and the coloring the search finds on it
K68_WITNESS = (
    '{"m": 6, "n": 8, "k": 5, "order": ["w0", "w1", "w2", "w3", "w4", "b0", "b1", "w5", "w6", "w7", "b2", "b3", "b4", "b5"], "edges": ['
    "[0, 0, 0], [0, 1, 0], [0, 2, 0], [0, 3, 0], [0, 4, 0], [0, 5, 2], [0, 6, 2], [0, 7, 2], "
    "[1, 0, 0], [1, 1, 1], [1, 2, 1], [1, 3, 1], [1, 4, 1], [1, 5, 0], [1, 6, 1], [1, 7, 1], "
    "[2, 0, 1], [2, 1, 1], [2, 2, 2], [2, 3, 2], [2, 4, 2], [2, 5, 3], [2, 6, 3], [2, 7, 0], "
    "[3, 0, 1], [3, 1, 2], [3, 2, 2], [3, 3, 3], [3, 4, 3], [3, 5, 3], [3, 6, 4], [3, 7, 0], "
    "[4, 0, 1], [4, 1, 2], [4, 2, 3], [4, 3, 3], [4, 4, 4], [4, 5, 4], [4, 6, 4], [4, 7, 0], "
    "[5, 0, 0], [5, 1, 2], [5, 2, 3], [5, 3, 4], [5, 4, 4], [5, 5, 0], [5, 6, 0], [5, 7, 0]"
    "]}"
)


def graph_from_edges(nvert, edges):
    adj = [0] * nvert
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return ConflictGraph(1, nvert, tuple(adj))


def complete_graph(nvert):
    return graph_from_edges(nvert, itertools.combinations(range(nvert), 2))


def brute_force_colorable(g, k):
    for colors in itertools.product(range(k), repeat=g.vertex_count):
        if g.is_proper(colors):
            return True
    return False


def is_model(model, nvars, clauses):
    """True iff ``model`` sets every variable 1..nvars and satisfies each clause."""
    return set(range(1, nvars + 1)) <= model.keys() and all(
        any(model[abs(lit)] == (lit > 0) for lit in clause) for clause in clauses
    )


def truth_table_sat(nvars, clauses):
    """Satisfiability by trying all 2^nvars assignments (bit v-1 is variable v)."""
    return any(
        all(any((bits >> (abs(lit) - 1) & 1) == (lit > 0) for lit in clause) for clause in clauses)
        for bits in range(1 << nvars)
    )


def random_cnf(rng):
    """1-9 variables and 0-35 clauses of 1-3 literals, a fifth of them with a
    clashing pair of unit clauses at random places."""
    nvars = rng.randint(1, 9)
    clauses = [
        [rng.choice((1, -1)) * rng.randint(1, nvars) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(0, 35))
    ]
    if rng.random() < 0.2:
        v = rng.randint(1, nvars)
        clauses.insert(rng.randint(0, len(clauses)), [v])
        clauses.insert(rng.randint(0, len(clauses)), [-v])
    text = f"p cnf {nvars} {len(clauses)}\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    return text, nvars, clauses


class TestConflictGraph:
    def test_planar_layout_has_no_conflicts(self):
        g = conflict_graph(CircularLayout.of([("b", 0), ("w", 0), ("b", 1), ("w", 1)]))
        assert g.vertex_count == 4
        assert g.edge_count == 0

    def test_single_interleaved_pair(self):
        g = conflict_graph(CircularLayout.of([("b", 0), ("b", 1), ("w", 0), ("w", 1)]))
        # vertex of edge (i,j) is i*n + j: (B0,W0) -> 0, (B1,W1) -> 3
        assert list(g.edges()) == [(0, 3)]

    def test_k45_graphs_have_twenty_vertices(self):
        for lay in enumerate_layouts(4, 5):
            g = conflict_graph(lay)
            assert g.vertex_count == 20

    def test_matches_scalar_predicate(self):
        rng = random.Random(31)
        layouts = [random_layout(rng, rng.randint(2, 4), rng.randint(2, 4)) for _ in range(10)]
        layouts += [random_layout(rng, m, n) for m, n in ((1, 6), (5, 9), (6, 10), (7, 12), (7, 13))]
        for lay in layouts:
            g = conflict_graph(lay)
            n = lay.n
            for u in range(g.vertex_count):
                for v in range(u + 1, g.vertex_count):
                    expected = edges_cross(lay, (u // n, u % n), (v // n, v % n))
                    assert bool((g.adj[u] >> v) & 1) == expected

    def test_never_relates_incident_edges(self):
        rng = random.Random(37)
        for _ in range(10):
            lay = random_layout(rng, 3, 4)
            g = conflict_graph(lay)
            for u, v in g.edges():
                assert u // 4 != v // 4 and u % 4 != v % 4


class TestLazyAdjacency:
    def test_matches_reference_on_small_splits(self):
        for size in range(2, 13):
            for m in range(1, size):
                for lay in enumerate_layouts(m, size - m):
                    assert conflict_graph(lay).adj == reference_conflict_graph(lay).adj

    def test_matches_reference_on_random_layouts(self):
        rng = random.Random(11)
        for _ in range(200):
            lay = random_layout(rng, rng.randint(1, 7), rng.randint(1, 13))
            assert conflict_graph(lay).adj == reference_conflict_graph(lay).adj

    def test_matches_reference_on_wide_layouts(self):
        # masks up to 900 bits wide, past any machine word
        rng = random.Random(17)
        for _ in range(40):
            lay = random_layout(rng, rng.randint(1, 30), rng.randint(1, 30))
            assert conflict_graph(lay).adj == reference_conflict_graph(lay).adj
        for m, n in ((30, 30), (1, 30), (30, 1)):
            lay = random_layout(rng, m, n)
            assert conflict_graph(lay).adj == reference_conflict_graph(lay).adj

    def test_wide_layouts_match_scalar_predicate(self):
        rng = random.Random(19)
        for m, n in ((30, 30), (23, 29), (29, 17)):
            lay = random_layout(rng, m, n)
            adj = conflict_graph(lay).adj
            for _ in range(3000):
                u, v = rng.randrange(m * n), rng.randrange(m * n)
                assert bool(adj[u] >> v & 1) == edges_cross(lay, divmod(u, n), divmod(v, n))

    @pytest.mark.parametrize("m, n", [(0, 5), (1, 7), (0, 0)], ids=["whites_only", "one_black", "empty"])
    def test_chordless_layouts(self, m, n):
        lay = random_layout(random.Random(23), m, n)
        g = conflict_graph(lay)
        assert g.adj == reference_conflict_graph(lay).adj == (0,) * (m * n)
        assert g.edge_count == 0 and is_k_colorable(g, 1).status == COLORABLE

    def test_layouts_with_one_split_compare_unequal(self):
        a, b = (conflict_graph(layout_from_string(s)) for s in ("000001111", "001010101"))
        assert (a.m, a.n) == (b.m, b.n)
        assert a != b
        assert a.__eq__(1) is NotImplemented and a != 1
        # all ten K_{4,5} graphs differ, so none of them may compare equal
        assert len({conflict_graph(lay) for lay in enumerate_layouts(4, 5)}) == 10

    def test_equals_hand_built_graph(self):
        lay = layout_from_string("001010101")
        g = conflict_graph(lay)
        hand = ConflictGraph(4, 5, reference_conflict_graph(lay).adj)
        assert g == hand and hand == g
        assert hash(g) == hash(hand)
        assert g != ConflictGraph(5, 4, hand.adj)


@pytest.fixture
def layouts_built(monkeypatch):
    """The words that ``coloring`` builds a CircularLayout from from here on."""
    words = []
    build = coloring.layout_from_string

    def counted(word):
        words.append(word)
        return build(word)

    monkeypatch.setattr(coloring, "layout_from_string", counted)
    return words


class TestWordGraph:
    """``conflict_graph`` of a layout's 0/1 word is the graph of its layout."""

    def test_matches_the_layout_graph_up_to_twelve_positions(self):
        # every word, canonical or not: the numbering must follow the word
        words = 0
        for size in range(2, 13):
            for bits in range(1, (1 << size) - 1):  # both colours present
                word = format(bits, f"0{size}b")
                lay = layout_from_string(word)
                g, h = conflict_graph(word), conflict_graph(lay)
                assert (g.m, g.n) == (h.m, h.n) == (lay.m, lay.n)
                assert g.adj == h.adj
                clique = find_clique(h)
                assert find_clique(conflict_graph(word)) == clique
                for k in range(1, 5):  # g keeps the cut sizes that each decision measured
                    assert outcome(is_k_colorable(g, k)) == outcome(is_k_colorable(h, k))
                assert find_clique(g) == clique
                assert g.layout == lay
                words += 1
        assert words == sum(2**size - 2 for size in range(2, 13))

    def test_layout_built_on_first_read(self, layouts_built):
        lay = layout_from_string("0011010111")
        g = conflict_graph("0011010111")
        assert layouts_built == []
        assert g.edge_count == conflict_graph(lay).edge_count
        assert g.layout == lay
        assert layouts_built == ["0011010111"]  # once, for adj and layout both

    @pytest.mark.parametrize(
        "word, message",
        [("", "at least one black and one white"), ("0000", "at least one black and one white"),
         ("1111", "at least one black and one white"), ("0120", "pattern must be over '0'/'1', got '2'")],
    )
    def test_malformed_words_raise_the_layout_error(self, word, message):
        with pytest.raises(ValueError, match=message):
            layout_from_string(word)
        with pytest.raises(ValueError, match=message):
            conflict_graph(word)
        with pytest.raises(ValueError, match=message):
            check_layout(word, 2)


@pytest.fixture
def built(monkeypatch):
    """The layouts, as bit strings, whose adjacency is built from here on."""
    layouts = []
    build = coloring._adjacency

    def counted(layout):
        layouts.append(layout.to_bitstring())
        return build(layout)

    monkeypatch.setattr(coloring, "_adjacency", counted)
    return layouts


class TestCliqueFirstBuilds:
    """A layout builds its adjacency only when the clique bound leaves it open."""

    def test_k45_builds_four_of_ten(self, built):
        res = verify_positive_crossing(4, 5, 3)
        assert res.status == "proven"
        assert sum(log.nodes for log in res.logs) == 26
        assert len(built) == 4
        assert sorted(built) == sorted(
            lay.to_bitstring() for lay in enumerate_layouts(4, 5) if len(_crossing_chain(lay)) <= 3
        )

    def test_k7_12_builds_only_open_layouts(self, built):
        open_layouts = sum(len(_crossing_chain(lay)) <= 6 for lay in enumerate_layouts(7, 12))
        res = verify_positive_crossing(7, 12, 6)
        assert res.status == "refuted"
        assert sum(log.nodes for log in res.logs) == 28869
        assert len(built) == open_layouts == 1368 - 1141


class TestClique:
    def test_edgeless(self):
        assert clique_lower_bound(graph_from_edges(5, [])) == 1

    def test_complete(self):
        assert clique_lower_bound(complete_graph(5)) == 5

    def test_blacks_contiguous_k33(self):
        lay = CircularLayout.of(
            [("b", 0), ("b", 1), ("b", 2), ("w", 0), ("w", 1), ("w", 2)]
        )
        g = conflict_graph(lay)
        w = clique_lower_bound(g)
        chi = next(k for k in range(1, 10) if is_k_colorable(g, k).status == COLORABLE)
        assert w <= chi
        clique = find_clique(g)
        assert all(
            (g.adj[u] >> v) & 1 for u in clique for v in clique if u != v
        )

    def test_clique_larger_than_the_recursion_limit(self):
        # branch and bound used to recurse once per clique vertex and raise RecursionError
        n = 1100
        full = (1 << n) - 1
        g = ConflictGraph(1, n, tuple(full ^ 1 << v for v in range(n)))
        assert find_clique(g) == list(range(n))
        assert is_k_colorable(g, 3).status == NOT_COLORABLE

    def test_exact_matches_greedy_floor(self):
        rng = random.Random(41)
        for _ in range(10):
            edges = [
                (u, v)
                for u, v in itertools.combinations(range(9), 2)
                if rng.random() < 0.45
            ]
            g = graph_from_edges(9, edges)
            exact = len(find_clique(g))
            assert exact >= 1
            # brute-force maximum clique for the oracle
            best = max(
                (len(sub) for size in range(1, 10)
                 for sub in itertools.combinations(range(9), size)
                 if all((g.adj[u] >> v) & 1 for u, v in itertools.combinations(sub, 2))),
                default=0,
            )
            assert exact == best

    def test_sweep_is_maximum_on_small_layouts(self):
        # every layout with at most 30 vertices, against branch and bound on
        # the same adjacency with the layout dropped
        for m, n in ((5, 6), (4, 7), (3, 10)):
            for lay in enumerate_layouts(m, n):
                g = conflict_graph(lay)
                clique = find_clique(g)
                assert all((g.adj[u] >> v) & 1 for u, v in itertools.combinations(clique, 2))
                assert len(clique) == len(_exact_max_clique(ConflictGraph(m, n, g.adj)))

    def test_k6_10_clique_decides_235_layouts(self):
        decided = 0
        for lay in enumerate_layouts(6, 10):
            g = conflict_graph(lay)
            clique = find_clique(g)
            assert all((g.adj[u] >> v) & 1 for u, v in itertools.combinations(clique, 2))
            decided += len(clique) > 5
        assert decided == 235

    @pytest.mark.parametrize(
        "m, n, k, decided", [(5, 7, 4, 26), (6, 10, 5, 235), (7, 12, 6, 1141), (7, 13, 6, 1828)]
    )
    def test_sweep_matches_reference(self, m, n, k, decided):
        # the same vertices in the same order: DSATUR pre-colors this clique
        count = 0
        for lay in enumerate_layouts(m, n):
            clique = find_clique(conflict_graph(lay))
            assert clique == reference_crossing_chain(lay)
            count += len(clique) > k
        assert count == decided


class TestBitParallelSweep:
    def test_matches_reference_on_wide_random_layouts(self):
        # words of 30..90 letters, wider than a 64-bit machine word, whose
        # cuts have the right side shorter as often as the left
        rng = random.Random(1986)
        for size in range(30, 91, 4):
            m = rng.randint(1, size - 1)
            lay = random_layout(rng, m, size - m)
            assert _crossing_chain(lay) == reference_crossing_chain(lay)

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (1, 9), (2, 1), (9, 1)])
    def test_stars_match_reference(self, m, n):
        # chords of a star share an end, so no two cross: one chord wins
        lay = layout_from_string("1" * m + "0" * n)
        for shift in range(m + n):
            rotated = lay.rotated(shift)
            assert _crossing_chain(rotated) == reference_crossing_chain(rotated)
            assert len(_crossing_chain(rotated)) == 1

    @pytest.mark.parametrize("seq", [(), (("w", 0), ("w", 1)), (("b", 0),)], ids=["empty", "whites", "black"])
    def test_layouts_without_chords(self, seq):
        lay = CircularLayout.of(seq)
        assert _crossing_chain(lay) == reference_crossing_chain(lay) == []

    def test_every_cut_length_is_the_lis_length_on_k6_10(self):
        # both orientations of the LCS: either word can be the bit vector
        for lay in enumerate_layouts(6, 10):
            word = "".join(c for c, _ in lay.seq)
            black = sum(1 << p for p, c in enumerate(word) if c == "b")
            white = sum(1 << p for p, c in enumerate(word) if c == "w")
            for p, want in enumerate(reference_cut_lengths(lay)):
                left = p + 1
                shifted = {"b": white >> left, "w": black >> left}
                assert _lcs_length(word[:left], shifted, len(word) - left) == want
                assert _lcs_length(word[left:], {"b": white, "w": black}, left) == want

    def test_lcs_length_of_plain_words(self):
        def match(word):
            return {c: sum(1 << i for i, x in enumerate(word) if x == c) for c in "abcd"}

        assert _lcs_length("abcbdab", match("bdcaba"), 6) == 4  # bcba
        assert _lcs_length("bdcaba", match("abcbdab"), 7) == 4
        assert _lcs_length("", match("abc"), 3) == 0
        assert _lcs_length("abc", match(""), 0) == 0
        assert _lcs_length("cba", match("abc"), 3) == 1

    def test_bound_skips_cuts_and_longer_side_is_the_vector(self, monkeypatch):
        calls = []

        def recording(short, match, width):
            calls.append((len(short), width))
            return _lcs_length(short, match, width)

        monkeypatch.setattr(coloring, "_lcs_length", recording)
        for lay in enumerate_layouts(7, 13):
            _crossing_chain(lay)
        # 16,677 of the 39,600 cuts reach the LCS; the rest are skipped by the bound
        assert len(calls) == 16_677
        assert all(short <= width for short, width in calls)

    def test_decision_at_k_skips_cuts_that_cannot_beat_k(self, monkeypatch):
        calls = []

        def recording(short, match, width):
            calls.append((len(short), width))
            return _lcs_length(short, match, width)

        monkeypatch.setattr(coloring, "_lcs_length", recording)
        settled = sum(_clique_sweep(lay.to_bitstring(), 6)[0] > 6 for lay in enumerate_layouts(7, 13))
        # against the full sweep's 16,677: a cut whose bound is at most 6 is
        # skipped, and a layout stops at its first cut above 6
        assert len(calls) == 4_797
        assert settled == 1828
        assert all(short <= width for short, width in calls)

    def test_decision_at_k_on_wide_random_layouts(self):
        rng = random.Random(1986)
        for size in range(30, 91, 4):
            m = rng.randint(1, size - 1)
            lay = random_layout(rng, m, size - m)
            best = _clique_sweep(lay.to_bitstring())[0]
            for k in range(1, size):
                assert (_clique_sweep(lay.to_bitstring(), k)[0] > k) == (best > k)


class TestSweepFirst:
    """``is_k_colorable`` settles a layout from the sweep's size alone and
    builds the clique only for the layouts that the size leaves open."""

    def test_size_and_cut_match_reference_up_to_twelve_positions(self):
        checked = 0
        for size in range(2, 13):
            for m in range(1, size):
                for lay in enumerate_layouts(m, size - m):
                    lengths = reference_cut_lengths(lay)
                    best, cut = _clique_sweep(lay.to_bitstring())
                    assert best == max(lengths) == len(reference_crossing_chain(lay))
                    assert cut == lengths.index(best)  # the first cut of largest size
                    checked += 1
        assert checked == sum(count_formula(m, size - m) for size in range(2, 13) for m in range(1, size))

    def test_decision_at_k_matches_full_sweep_up_to_twelve_positions(self):
        # every k from 1 to m + n - 1: the first cut whose clique exceeds k,
        # with that clique's size, or (k, -1) if no cut's does
        for size in range(2, 13):
            for m in range(1, size):
                for lay in enumerate_layouts(m, size - m):
                    lengths = reference_cut_lengths(lay)
                    best = _clique_sweep(lay.to_bitstring())[0]
                    for k in range(1, size):
                        above = [p for p, length in enumerate(lengths) if length > k]
                        want = (lengths[above[0]], above[0]) if above else (k, -1)
                        got = _clique_sweep(lay.to_bitstring(), k)
                        assert got == want
                        assert (got[0] > k) == (best > k)

    def test_size_above_k_settles_without_a_clique(self, monkeypatch, built):
        def refuse(*args):
            raise AssertionError("a clique was built for a layout that its size settles")

        settled = [lay for lay in enumerate_layouts(7, 13) if _clique_sweep(lay.to_bitstring())[0] > 6]
        monkeypatch.setattr(coloring, "find_clique", refuse)
        monkeypatch.setattr(coloring, "_crossing_chain", refuse)
        for lay in settled:
            assert outcome(is_k_colorable(conflict_graph(lay), 6)) == (NOT_COLORABLE, 0, None)
        assert len(settled) == 1828
        assert built == []

    def test_open_layouts_search_from_the_reference_clique(self, monkeypatch):
        found = []

        def recording(g):
            found.append(find_clique(g))
            return found[-1]

        monkeypatch.setattr(coloring, "find_clique", recording)
        open_layouts = [lay for lay in enumerate_layouts(7, 13) if _clique_sweep(lay.to_bitstring())[0] <= 6]
        for lay in open_layouts:
            assert is_k_colorable(conflict_graph(lay), 6).status == NOT_COLORABLE
        assert found == [reference_crossing_chain(lay) for lay in open_layouts]
        assert len(found) == 152


class TestIsKColorable:
    def test_edgeless_one_color(self):
        res = is_k_colorable(graph_from_edges(20, []), 1)
        assert res.status == COLORABLE
        assert set(res.assignment) == {0}

    def test_k4_needs_four_colors(self):
        res = is_k_colorable(complete_graph(4), 3)
        assert res.status == NOT_COLORABLE
        assert is_k_colorable(complete_graph(4), 4).status == COLORABLE

    def test_all_k45_layouts_uncolorable_at_three(self):
        for lay in enumerate_layouts(4, 5):
            res = is_k_colorable(conflict_graph(lay), 3)
            assert res.status == NOT_COLORABLE

    def test_witness_is_proper(self):
        rng = random.Random(43)
        for _ in range(15):
            lay = random_layout(rng, 3, 3)
            g = conflict_graph(lay)
            res = is_k_colorable(g, 3)
            if res.status == COLORABLE:
                assert g.is_proper(res.assignment)

    def test_agrees_with_exhaustive_enumeration(self):
        rng = random.Random(47)
        cases = 0
        for _ in range(25):
            lay = random_layout(rng, 3, rng.randint(2, 4))
            g = conflict_graph(lay)
            if g.vertex_count > 12:
                continue
            for k in (1, 2, 3):
                expected = brute_force_colorable(g, k)
                got = is_k_colorable(g, k).status
                assert got == (COLORABLE if expected else NOT_COLORABLE), (lay.seq, k)
                cases += 1
        assert cases >= 30

    def test_clique_short_circuit(self):
        for lay in enumerate_layouts(4, 4):
            g = conflict_graph(lay)
            if clique_lower_bound(g) > 3:
                assert is_k_colorable(g, 3).status == NOT_COLORABLE

    def test_budget_exceeded_is_distinct(self):
        # force a search (clique <= k) then starve it
        for lay in enumerate_layouts(5, 7):
            g = conflict_graph(lay)
            if clique_lower_bound(g) <= 4:
                res = is_k_colorable(g, 4, budget=1)
                assert res.status == BUDGET_EXCEEDED
                assert res.nodes >= 1
                break
        else:
            pytest.fail("expected at least one layout requiring search")

    def test_bad_k(self):
        with pytest.raises(ValueError):
            is_k_colorable(graph_from_edges(2, []), 0)

    @pytest.mark.parametrize("k", [2.5, 2.0, True])
    def test_non_integer_k(self, k):
        # 2.5 used to read as "not colorable" on this K_{4,5} layout
        with pytest.raises(ValueError, match="k must be an integer"):
            is_k_colorable(conflict_graph(layout_from_string("001010101")), k)


def outcome(res):
    return res.status, res.nodes, res.assignment


def open_graphs(m, n, k):
    """The conflict graphs of the layouts of K_{m,n} that the clique bound leaves open at k."""
    return [g for g in map(conflict_graph, enumerate_layouts(m, n)) if len(find_clique(g)) <= k]


def random_graph(rng, nvert, p):
    return graph_from_edges(nvert, [e for e in itertools.combinations(range(nvert), 2) if rng.random() < p])


def extend_calls(search, g, k):
    """Run ``search(g, k)`` and count the calls of its ``extend``: all of them,
    and those but the root that returned False without calling ``extend``."""
    made_call = []  # per open extend call, whether it has called extend
    calls = dead = 0

    def profile(frame, event, arg):
        nonlocal calls, dead
        if frame.f_code.co_name != "extend":
            return
        if event == "call":
            calls += 1
            if made_call:
                made_call[-1] = True
            made_call.append(False)
        elif event == "return":
            if not made_call.pop() and made_call and arg is False:
                dead += 1

    sys.setprofile(profile)
    try:
        res = search(g, k)
    finally:
        sys.setprofile(None)
    return res, calls, dead


class TestSaturationLevels:
    """The search with incremental saturation levels against the search that
    rebuilds them at every node: same status, node count and coloring."""

    @pytest.mark.parametrize("m, n, k", [(5, 7, 4), (6, 8, 5), (6, 10, 5)])
    def test_every_layout_matches_reference(self, m, n, k):
        for lay in enumerate_layouts(m, n):
            g = conflict_graph(lay)
            assert outcome(is_k_colorable(g, k)) == outcome(reference_is_k_colorable(g, k)), lay.seq

    def test_open_k7_12_layouts_match_reference(self):
        graphs = open_graphs(7, 12, 6)
        assert len(graphs) == 1368 - 1141
        for g in graphs:
            assert outcome(is_k_colorable(g, 6)) == outcome(reference_is_k_colorable(g, 6)), g.layout.seq

    def test_budgets_run_out_where_reference_does(self):
        cases = 0
        for g in open_graphs(6, 8, 5):
            total = reference_is_k_colorable(g, 5).nodes
            if total < 20:
                continue
            for budget in sorted({0, 1, total // 3, total // 2, total - 1, total}):
                got = is_k_colorable(g, 5, budget)
                assert outcome(got) == outcome(reference_is_k_colorable(g, 5, budget)), (g.layout.seq, budget)
                assert (got.status == BUDGET_EXCEEDED) == (budget < total)
                cases += 1
        assert cases >= 100

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_random_hand_built_graphs_match_reference(self, k):
        rng = random.Random(7100 + k)
        statuses = set()
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 18), rng.uniform(0.1, 0.7))
            got = is_k_colorable(g, k)
            assert outcome(got) == outcome(reference_is_k_colorable(g, k)), g.adj
            statuses.add(got.status)
        assert statuses == {COLORABLE, NOT_COLORABLE}

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_root_wipeout_has_no_nodes(self, k, monkeypatch):
        # a k-clique plus a vertex adjacent to all of it
        g = complete_graph(k + 1)
        assert outcome(is_k_colorable(g, k)) == (NOT_COLORABLE, 0, None)
        # pre-colored from the k-clique alone, the last vertex sees all k colors at the root
        monkeypatch.setattr(coloring, "find_clique", lambda g: list(range(k)))
        assert outcome(is_k_colorable(g, k)) == (NOT_COLORABLE, 0, None)

    def test_colours_beyond_the_vertex_count_change_nothing(self):
        # the per-colour state had k entries, copied at every node: 80 MB a list at k = 10**7
        rng = random.Random(7200)
        graphs = [conflict_graph(lay) for lay in enumerate_layouts(3, 4)]
        graphs += [random_graph(rng, rng.randint(1, 12), 0.5) for _ in range(10)]
        for g in graphs:
            tracemalloc.start()
            try:
                got = is_k_colorable(g, 10**7)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert outcome(got) == outcome(is_k_colorable(g, g.vertex_count)), g.adj
            assert peak < 2**20

    def test_child_with_a_wipeout_is_counted_not_entered(self):
        # the reference enters one call per node and the root; a call of its
        # that returns False without a call of its own had a vertex seeing
        # all k colors, and is the child that the level search counts and skips
        skipped = 0
        for g in open_graphs(6, 8, 5):
            res, calls, _ = extend_calls(is_k_colorable, g, 5)
            ref, ref_calls, wipeouts = extend_calls(reference_is_k_colorable, g, 5)
            assert outcome(res) == outcome(ref)
            assert ref_calls == ref.nodes + 1
            assert calls == ref_calls - wipeouts
            skipped += wipeouts
        assert skipped > 100


class TestCnf:
    @pytest.mark.parametrize("k", [0, 2.5, True])
    def test_bad_k(self, k):
        with pytest.raises(ValueError, match="k must be positive, got 0" if k == 0 else "k must be an integer"):
            export_cnf(graph_from_edges(2, [(0, 1)]), k)

    def test_single_edge_two_colors(self):
        g = graph_from_edges(2, [(0, 1)])
        cnf = export_cnf(g, 2)
        header = cnf.splitlines()[0]
        assert header == "p cnf 4 4"  # 2 at-least-one + 1 edge * 2 colors
        assert solve_dimacs(cnf) is not None

    def test_k4_three_colors_unsat(self):
        cnf = export_cnf(complete_graph(4), 3)
        assert cnf.splitlines()[0] == "p cnf 12 22"  # 4 + 18
        assert solve_dimacs(cnf) is None

    def test_variable_indexing(self):
        g = graph_from_edges(2, [(0, 1)])
        cnf = export_cnf(g, 3)
        lines = cnf.splitlines()
        assert lines[1] == "1 2 3 0"
        assert lines[2] == "4 5 6 0"
        assert "-1 -4 0" in lines

    def test_unsat_matches_search_on_k57_layout(self):
        lay = next(enumerate_layouts(5, 7))
        g = conflict_graph(lay)
        cnf = export_cnf(g, 4)
        assert cnf.splitlines()[0].startswith("p cnf 140 ")
        assert solve_dimacs(cnf) is None
        assert is_k_colorable(g, 4).status == NOT_COLORABLE

    def test_sat_matches_search(self):
        lay = CircularLayout.of(
            [("b", 0), ("w", 0), ("b", 1), ("w", 1), ("b", 2), ("w", 2)]
        )
        g = conflict_graph(lay)
        res = is_k_colorable(g, 2)
        model = solve_dimacs(export_cnf(g, 2))
        assert (res.status == COLORABLE) == (model is not None)

    def test_witness_satisfies_cnf(self):
        for lay in enumerate_layouts(4, 4):
            g = conflict_graph(lay)
            res = is_k_colorable(g, 3)
            if res.status == COLORABLE:
                assert coloring_satisfies_cnf(export_cnf(g, 3), res.assignment, 3)
                break
        else:
            pytest.fail("expected a colorable K_{4,4} layout at k=3")

    def test_recolored_conflict_edge_fails_cnf(self):
        # give one end of a conflict edge its neighbour's color
        g = conflict_graph(layout_from_string("00110011"))
        res = is_k_colorable(g, 3)
        assert res.status == COLORABLE
        cnf = export_cnf(g, 3)
        assert coloring_satisfies_cnf(cnf, res.assignment, 3)
        u, v = next(g.edges())
        colors = list(res.assignment)
        colors[u] = colors[v]
        assert not coloring_satisfies_cnf(cnf, colors, 3)

    def test_models_satisfy_exported_cnfs(self):
        cnfs = [export_cnf(graph_from_edges(2, [(0, 1)]), 2), export_cnf(complete_graph(4), 4)]
        cnfs += [export_cnf(conflict_graph(lay), 3) for lay in enumerate_layouts(4, 4)]
        sat = 0
        for cnf in cnfs:
            model = solve_dimacs(cnf)
            if model is not None:
                sat += 1
                assert is_model(model, *coloring._parse_dimacs(cnf))
        assert sat >= 3

    def test_random_cnfs_match_truth_table(self):
        rng = random.Random(53)
        answers = set()
        for _ in range(1500):
            text, nvars, clauses = random_cnf(rng)
            model = solve_dimacs(text)
            expected = truth_table_sat(nvars, clauses)
            assert (model is not None) == expected, text
            if model is not None:
                assert is_model(model, nvars, clauses), text
            answers.add(expected)
        assert answers == {True, False}

    def test_parse_dimacs_skips_blank_and_comment_lines(self):
        text = "c a comment\n\np cnf 3 2\n  \nc another\n1 -2 0\n-3 0\n"
        assert coloring._parse_dimacs(text) == (3, [[1, -2], [-3]])

    @pytest.mark.parametrize("header", ["p dnf 1 1", "p cnf 1"])
    def test_parse_dimacs_rejects_bad_header(self, header):
        with pytest.raises(ValueError, match="bad DIMACS header"):
            coloring._parse_dimacs(header + "\n1 0\n")


class TestVerifyPipeline:
    def test_k45_proven(self):
        res = verify_positive_crossing(4, 5, 3)
        assert res.status == "proven"
        assert len(res.logs) == 10
        assert all(log.verdict == NOT_COLORABLE for log in res.logs)

    def test_k57_proven(self):
        res = verify_positive_crossing(5, 7, 4)
        assert res.status == "proven"
        assert len(res.logs) == 38

    def test_k33_two_pages_proven(self):
        # K_{3,3} is nonplanar, so it cannot embed in 2 pages either
        res = verify_positive_crossing(3, 3, 2)
        assert res.status == "proven"
        assert len(res.logs) == 3

    def test_k44_refuted_with_embedding_witness(self):
        res = verify_positive_crossing(4, 4, 3)
        assert res.status == "refuted"
        assert res.witness is not None
        assert count_crossings(res.witness).total == 0
        assert res.witness.k == 3

    def test_inconclusive_on_tiny_budget(self):
        res = verify_positive_crossing(5, 7, 4, budget=1)
        assert res.status == "inconclusive"
        assert res.unfinished

    @pytest.mark.parametrize(
        "k, budget, jobs, message",
        [(3.0, 10, 1, "k must be an integer"), (0, 10, 1, "k must be positive, got 0"),
         (3, True, 1, "budget must be an integer"), (3, 2.5, 1, "budget must be an integer"),
         (3, -1, 1, "budget must be non-negative, got -1"), (3, 10, True, "jobs must be an integer"),
         (3, 10, 2.5, "jobs must be an integer"), (3, 10, 0, "jobs must be positive, got 0")],
        ids=["float_k", "zero_k", "bool_budget", "fractional_budget", "negative_budget", "bool_jobs",
             "fractional_jobs", "zero_jobs"],
    )
    def test_bad_arguments(self, k, budget, jobs, message):
        # budget True or 2.5 used to end inconclusive, jobs True to run, and
        # jobs 2.5 or k 3.0 to raise TypeError
        with pytest.raises(ValueError, match=message):
            verify_positive_crossing(4, 5, k, budget=budget, jobs=jobs)

    def test_search_deeper_than_the_recursion_limit(self):
        # the search recurses once per vertex colored; it used to end in a RecursionError
        with pytest.raises(ValueError, match="search over 1000 vertices is deeper than Python's recursion limit"):
            verify_positive_crossing(2, 500, 2)

    def test_parallel_matches_serial(self):
        # the same records apart from millis, and the same witness
        def timeless(res):
            return replace(res, logs=tuple(replace(log, millis=0.0) for log in res.logs))

        for m, n, k, status in [(4, 5, 3, "proven"), (4, 4, 3, "refuted")]:
            serial = verify_positive_crossing(m, n, k, jobs=1)
            assert serial.status == status
            assert timeless(verify_positive_crossing(m, n, k, jobs=2)) == timeless(serial)

    def test_parallel_refutation_matches_serial(self):
        # K_{6,8} has 126 layouts, which go out to two workers in 63 batches
        for m, n, k in [(4, 4, 3), (6, 8, 5)]:
            serial = verify_positive_crossing(m, n, k, jobs=1)
            parallel = verify_positive_crossing(m, n, k, jobs=2)
            assert serial.status == parallel.status == "refuted"
            assert [(l.canonical, l.verdict, l.nodes) for l in serial.logs] == [
                (l.canonical, l.verdict, l.nodes) for l in parallel.logs
            ]
            assert serial.witness == parallel.witness
            first = next(l.canonical for l in serial.logs if l.verdict == COLORABLE)
            assert serial.witness.layout == layout_from_string(first)

    def test_pool_starts_one_worker_per_pending_layout(self, monkeypatch):
        # a fork pool starts all max_workers at once, so K_{4,5}'s 10 layouts
        # get 10 workers, not 64; the batches stay sized by jobs
        import concurrent.futures

        calls = []

        class SerialPool:
            def __init__(self, max_workers):
                calls.append(("workers", max_workers))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                calls.append(("chunksize", chunksize))
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        fanned = verify_positive_crossing(4, 5, 3, jobs=64)
        serial = verify_positive_crossing(4, 5, 3, jobs=1)
        assert calls == [("workers", 10), ("chunksize", 1)]
        assert fanned.status == serial.status == "proven"
        assert [(l.canonical, l.verdict, l.nodes) for l in fanned.logs] == [
            (l.canonical, l.verdict, l.nodes) for l in serial.logs
        ]

    def test_resumed_budget_exceeded_is_retried(self):
        strings = [lay.to_bitstring() for lay in enumerate_layouts(5, 7)]
        done = {s: LayoutLog(s, BUDGET_EXCEEDED, 1, 0.0) for s in strings}
        res = verify_positive_crossing(5, 7, 4, completed=done)
        assert res.status == "proven"
        assert all(log.verdict == NOT_COLORABLE for log in res.logs)

    def test_resume_skips_completed(self):
        first = verify_positive_crossing(4, 5, 3)
        done = {log.canonical: log for log in first.logs}
        resumed = verify_positive_crossing(4, 5, 3, completed=done)
        assert resumed.status == "proven"
        assert [l.millis for l in resumed.logs] == [l.millis for l in first.logs]

    def test_resumed_colorable_out_of_budget_is_unfinished(self):
        # recomputing a resumed witness that runs out of budget leaves its
        # layout unfinished instead of building a drawing from no coloring
        strings = [lay.to_bitstring() for lay in enumerate_layouts(4, 4)]
        done = {s: LayoutLog(s, COLORABLE, 1, 0.0) for s in strings}
        res = verify_positive_crossing(4, 4, 3, budget=0, completed=done)
        assert res.status == INCONCLUSIVE
        assert res.witness is None
        assert res.unfinished
        by_string = {log.canonical: log.verdict for log in res.logs}
        assert all(by_string[s] == BUDGET_EXCEEDED for s in res.unfinished)

    @pytest.mark.parametrize(
        "m, n, k, status, nodes",
        [
            (4, 4, 3, "refuted", 52),
            (4, 5, 3, "proven", 26),
            (5, 7, 4, "proven", 138),
            (6, 8, 5, "refuted", 3049),
            (6, 10, 5, "proven", 1536),
        ],
    )
    def test_search_nodes_pinned(self, m, n, k, status, nodes):
        # the DSATUR order (saturation, then degree, then lowest index), the
        # clique pre-coloring and the first-use color rule fix these totals
        res = verify_positive_crossing(m, n, k)
        assert res.status == status
        assert sum(log.nodes for log in res.logs) == nodes

    def test_k8_17_proven_at_seven(self, monkeypatch):
        # a verdict only, not a certificate: 373 layouts reach the clique
        # build and the search, the sweep settles the other 21,506
        found = []

        def recording(g):
            found.append(g.layout)
            return find_clique(g)

        monkeypatch.setattr(coloring, "find_clique", recording)
        res = verify_positive_crossing(8, 17, 7)
        assert res.status == "proven"
        assert len(res.logs) == count_formula(8, 17) == 21_879
        assert sum(log.nodes for log in res.logs) == 9_973
        assert len(found) == 373

    @pytest.mark.parametrize(
        "m, n, k, builds", [(7, 13, 6, 152), (7, 12, 6, 227 + 1), (8, 17, 7, 373)], ids=["prove", "refute", "k8_17"]
    )
    def test_builds_a_layout_only_for_open_layouts(self, layouts_built, m, n, k, builds):
        # a layout that the sweep settles from its word builds no
        # CircularLayout; K_{7,12} builds one more for its witness drawing
        res = verify_positive_crossing(m, n, k)
        assert len(layouts_built) == builds
        searched = [log.canonical for log in res.logs if log.nodes]
        assert sorted(set(layouts_built)) == sorted(searched)

    def test_an_open_layout_is_swept_once(self, monkeypatch):
        # find_clique finishes the decision's sweep, measuring only the cuts
        # that it skipped: 5,709 LCS runs, against 6,773 for a fresh sweep
        calls = []

        def recording(short, match, width):
            calls.append(width)
            return _lcs_length(short, match, width)

        monkeypatch.setattr(coloring, "_lcs_length", recording)
        res = verify_positive_crossing(7, 13, 6)
        assert sum(log.nodes for log in res.logs) == 3860
        assert len(calls) == 5709

    def test_k68_witness_pinned(self):
        res = verify_positive_crossing(6, 8, 5)
        assert to_json(res.witness) == K68_WITNESS

    def test_refuted_witness_converts_coloring(self):
        lay = CircularLayout.of(
            [("b", 0), ("w", 0), ("b", 1), ("w", 1)]
        )
        g = conflict_graph(lay)
        res = is_k_colorable(g, 1)
        assert res.status == COLORABLE
        d = coloring_to_drawing(lay, res.assignment, 1)
        assert count_crossings(d).total == 0


class TestLayoutLog:
    LOG = LayoutLog("001010101", NOT_COLORABLE, 12, 0.5)

    def test_slotted_and_frozen(self):
        assert not hasattr(self.LOG, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.LOG.nodes = 0

    def test_copies_and_replace(self):
        for again in (pickle.loads(pickle.dumps(self.LOG)), copy.deepcopy(self.LOG), copy.copy(self.LOG)):
            assert again == self.LOG and again.to_dict() == self.LOG.to_dict()
        changed = replace(self.LOG, millis=0.0)
        assert changed == LayoutLog("001010101", NOT_COLORABLE, 12, 0.0) != self.LOG
