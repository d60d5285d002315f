import itertools
import random

import pytest

from bookcross.coloring import (
    BUDGET_EXCEEDED,
    COLORABLE,
    INCONCLUSIVE,
    NOT_COLORABLE,
    ConflictGraph,
    LayoutLog,
    _exact_max_clique,
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
from bookcross.enumeration import enumerate_layouts, layout_from_string

from conftest import random_layout

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


class TestCnf:
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

    def test_parallel_matches_serial(self):
        serial = verify_positive_crossing(4, 5, 3, jobs=1)
        parallel = verify_positive_crossing(4, 5, 3, jobs=2)
        assert serial.status == parallel.status == "proven"
        assert [l.canonical for l in serial.logs] == [l.canonical for l in parallel.logs]
        assert [l.verdict for l in serial.logs] == [l.verdict for l in parallel.logs]

    def test_parallel_refutation_matches_serial(self):
        serial = verify_positive_crossing(4, 4, 3, jobs=1)
        parallel = verify_positive_crossing(4, 4, 3, jobs=2)
        assert serial.status == parallel.status == "refuted"
        assert [l.canonical for l in serial.logs] == [l.canonical for l in parallel.logs]
        assert [l.verdict for l in serial.logs] == [l.verdict for l in parallel.logs]
        assert serial.witness == parallel.witness
        first = next(l.canonical for l in serial.logs if l.verdict == COLORABLE)
        assert serial.witness.layout == layout_from_string(first)

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
