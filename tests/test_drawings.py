import copy
import math
import pickle
import random
import re
import tracemalloc
from argparse import Namespace
from collections.abc import Mapping
from itertools import product

import numpy as np
import pytest

from bookcross import bounds, cli, coloring, enumeration, oracle
from bookcross.constructions import (
    BalancedParams,
    balanced_embedding,
    block_cyclic,
    blowup,
    blowup_crossing_count,
    riskin_crossing_count,
    riskin_drawing,
)
from bookcross.drawings import (
    BookDrawing,
    CircularLayout,
    CrossingReport,
    DrawingFormatError,
    count_crossings,
    edges_cross,
    from_json,
    is_balanced_embedding,
    page_loads,
    permute_pages,
    to_json,
)
from bookcross.enumeration import layout_from_string
from bookcross.render import render_svg

from conftest import (
    pairwise_crossing_per_page,
    random_drawing,
    random_layout,
    reference_count_crossings,
    reference_edges_cross,
)


def layout_of(*tokens):
    return CircularLayout.of(tokens)


class TestEdgesCross:
    def test_interleaved(self):
        lay = layout_of(("b", 0), ("b", 1), ("w", 0), ("w", 1))
        assert edges_cross(lay, (0, 0), (1, 1)) is True

    def test_disjoint_arcs(self):
        lay = layout_of(("b", 0), ("w", 0), ("b", 1), ("w", 1))
        assert edges_cross(lay, (0, 0), (1, 1)) is False

    def test_shared_endpoint(self):
        lay = layout_of(("b", 0), ("b", 1), ("w", 0), ("w", 1))
        assert edges_cross(lay, (0, 0), (0, 1)) is False
        assert edges_cross(lay, (0, 0), (1, 0)) is False

    def test_invalid_vertex(self):
        lay = layout_of(("b", 0), ("w", 0))
        with pytest.raises(ValueError):
            edges_cross(lay, (0, 0), (1, 0))

    def test_symmetric(self):
        rng = random.Random(7)
        for _ in range(50):
            m, n = rng.randint(2, 4), rng.randint(2, 5)
            lay = random_layout(rng, m, n)
            e1 = (rng.randrange(m), rng.randrange(n))
            e2 = (rng.randrange(m), rng.randrange(n))
            assert edges_cross(lay, e1, e2) == edges_cross(lay, e2, e1)

    @pytest.mark.parametrize("edge", [(True, 0), (0, False), (1.0, 0), (0, 1.0), ("1", 0), (np.bool_(True), 0)])
    def test_non_integer_vertex(self, edge):
        # (True, 0) used to answer as (1, 0), and (1.0, 0) to fail as a list index
        lay = block_cyclic(3, 4, 2).layout
        with pytest.raises(ValueError, match="edge vertex indices must be integers"):
            edges_cross(lay, edge, (0, 1))
        with pytest.raises(ValueError, match="edge vertex indices must be integers"):
            edges_cross(lay, (0, 1), edge)

    def test_numpy_integer_vertex(self):
        lay = block_cyclic(3, 4, 2).layout
        for e1 in product(range(3), range(4)):
            for e2 in product(range(3), range(4)):
                as_numpy = (np.int64(e1[0]), np.int32(e1[1]))
                assert edges_cross(lay, as_numpy, e2) == edges_cross(lay, e1, e2)

    def test_matches_reference_on_all_small_layouts(self):
        # every 0/1 word up to length 9 with both colours, rotated by one and
        # reflected as well, so the labels do not always run clockwise from 0
        for total in range(2, 10):
            for word in map("".join, product("01", repeat=total)):
                if "0" not in word or "1" not in word:
                    continue
                base = layout_from_string(word)
                edges = list(product(range(base.m), range(base.n)))
                for lay in (base, base.rotated(1), base.reflected()):
                    for e1, e2 in product(edges, edges):
                        assert edges_cross(lay, e1, e2) == reference_edges_cross(lay, e1, e2), (lay, e1, e2)


class TestCountCrossings:
    def test_block_cyclic_k45(self):
        assert count_crossings(block_cyclic(4, 5, 3)).total == 2

    def test_balanced_k69_is_embedding(self):
        assert count_crossings(balanced_embedding(5)).total == 0

    def test_star_never_crosses(self):
        rng = random.Random(3)
        for n in (1, 4, 7):
            d = BookDrawing(random_layout(rng, 1, n), 1, {(0, j): 0 for j in range(n)})
            assert count_crossings(d).total == 0

    def test_report_consistency(self):
        rep = count_crossings(block_cyclic(5, 6, 2))
        assert rep.total == sum(rep.per_page)
        assert len(rep.per_page) == 2
        with pytest.raises(ValueError, match="total must equal"):
            CrossingReport(1, (0,))

    def test_matches_pairwise_reference(self):
        rng = random.Random(11)
        for _ in range(25):
            d = random_drawing(rng, rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 3))
            assert count_crossings(d).per_page == pairwise_crossing_per_page(d)

    def test_invariant_under_rotation_and_reflection(self):
        rng = random.Random(13)
        for _ in range(10):
            d = random_drawing(rng, 3, 4, 2)
            base = count_crossings(d).total
            for shift in (1, 3, 6):
                rot = BookDrawing(d.layout.rotated(shift), d.k, dict(d.pages))
                assert count_crossings(rot).total == base
            refl = BookDrawing(d.layout.reflected(), d.k, dict(d.pages))
            assert count_crossings(refl).total == base

    def test_invariant_under_page_permutation(self):
        rng = random.Random(17)
        d = random_drawing(rng, 4, 4, 3)
        base = count_crossings(d)
        perm = [2, 0, 1]
        permuted = count_crossings(permute_pages(d, perm))
        assert permuted.total == base.total
        assert sorted(permuted.per_page) == sorted(base.per_page)

    def test_two_page_split_never_beats_zero_nor_exceeds_one_page(self):
        rng = random.Random(19)
        lay = random_layout(rng, 3, 4)
        one_page = BookDrawing(lay, 1, {(i, j): 0 for i in range(3) for j in range(4)})
        c1 = count_crossings(one_page).total
        best = c1
        for _ in range(40):
            pages = {(i, j): rng.randrange(2) for i in range(3) for j in range(4)}
            total = count_crossings(BookDrawing(lay, 2, pages)).total
            assert 0 <= total <= c1
            best = min(best, total)
        assert 0 <= best <= c1

    def test_one_page_block_cyclic_matches_closed_form(self):
        # E = 2500 on one page; the closed form is the oracle
        d = block_cyclic(50, 50, 1)
        assert count_crossings(d).total == math.comb(50, 2) ** 2

    @pytest.mark.parametrize("m, n", [(25, 400), (100, 200)])
    def test_large_one_page_riskin_matches_closed_form(self, m, n):
        d = riskin_drawing(m, n)
        assert m * n >= 10**4
        assert count_crossings(d).total == riskin_crossing_count(m, n)

    def test_array_built_drawings_match_pairwise_reference(self):
        rng = random.Random(31)
        for _ in range(120):
            m, n, k = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
            pages = np.array([[rng.randrange(k) for _ in range(n)] for _ in range(m)])
            d = BookDrawing(random_layout(rng, m, n), k, pages)
            assert count_crossings(d).per_page == pairwise_crossing_per_page(d)

    def test_per_page_matches_reference_on_random_drawings(self):
        rng = random.Random(37)
        for _ in range(400):
            m, n, k = rng.randint(0, 20), rng.randint(0, 20), rng.randint(1, 9)
            used = rng.sample(range(k), rng.randint(1, k))  # the other pages stay empty
            pages = np.array([[rng.choice(used) for _ in range(n)] for _ in range(m)], dtype=np.int64)
            d = BookDrawing(random_layout(rng, m, n), k, pages.reshape(m, n))
            assert count_crossings(d) == reference_count_crossings(d), to_json(d)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 9, 12, 16, 23, 31, 40, 48, 57, 64])
    def test_per_page_matches_reference_on_balanced_embeddings(self, k):
        d = balanced_embedding(k)
        assert count_crossings(d) == reference_count_crossings(d) == CrossingReport(0, (0,) * k)

    def test_per_page_matches_reference_on_blowups(self):
        for k in range(2, 7):
            base = balanced_embedding(k)
            for n in (base.n, base.n + 1, 2 * base.n + 3, 101, 500):
                d = blowup(base, n)
                assert count_crossings(d) == reference_count_crossings(d), (k, n)

    def test_per_page_matches_reference_on_block_cyclic_grid(self):
        for m in range(1, 41, 3):
            for n in range(1, 41, 4):
                for k in range(1, 9):
                    d = block_cyclic(m, n, k)
                    assert count_crossings(d) == reference_count_crossings(d), (m, n, k)

    @staticmethod
    def traced_count(d):
        tracemalloc.start()
        try:
            report = count_crossings(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return report, peak

    def test_huge_page_count_memory(self):
        # memory follows the chords, not k: a k x (m+n) table would trace
        # about 31 MB here
        lay = layout_of(("b", 0), *(("w", j) for j in range(200)))
        d = BookDrawing(lay, 10**4, np.zeros((1, 200), dtype=np.int64))
        report, peak = self.traced_count(d)
        assert report == CrossingReport(0, (0,) * 10**4)
        assert peak < 8 * 2**20

    def test_one_edge_per_page_memory(self):
        # memory follows the chords, not pages times spine: a table with a
        # row per occupied page would trace about 16 MB here
        lay = layout_of(("b", 0), *(("w", j) for j in range(1000)))
        d = BookDrawing(lay, 1000, np.arange(1000, dtype=np.int64).reshape(1, 1000))
        report, peak = self.traced_count(d)
        assert report == CrossingReport(0, (0,) * 1000)
        assert peak < 2 * 2**20

    def test_total_bounded_by_edge_pairs(self):
        rng = random.Random(23)
        for _ in range(10):
            m, n, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
            d = random_drawing(rng, m, n, k)
            assert count_crossings(d).total <= math.comb(m * n, 2)


class TestPageLoads:
    def test_balanced_loads(self):
        d = balanced_embedding(5)  # K_{6,9}
        for w in range(d.n):
            assert sorted(page_loads(d, w)) == [1, 1, 1, 1, 2]

    def test_single_page_load_is_degree(self):
        rng = random.Random(29)
        d = BookDrawing(random_layout(rng, 3, 4), 1, {(i, j): 0 for i in range(3) for j in range(4)})
        assert page_loads(d, 2) == [3]

    def test_blowup_inherits_loads(self):
        base = balanced_embedding(3)  # K_{4,4}
        d = blowup(base, 5)
        for w in range(5):
            assert sorted(page_loads(d, w)) == [1, 1, 2]

    def test_loads_sum_to_degree(self):
        d = block_cyclic(4, 6, 3)
        for w in range(6):
            assert sum(page_loads(d, w)) == 4

    def test_invalid_white(self):
        d = block_cyclic(2, 2, 1)
        with pytest.raises(ValueError):
            page_loads(d, 2)

    @pytest.mark.parametrize("w", [True, False, 1.0, "1", None, np.bool_(True)])
    def test_non_integer_white(self, w):
        # True and 1.0 pass the range check; numpy then fails on them
        d = block_cyclic(3, 4, 2)
        with pytest.raises(ValueError, match="white vertex must be an integer"):
            page_loads(d, w)

    def test_numpy_integer_white(self):
        d = block_cyclic(3, 4, 2)
        assert page_loads(d, np.int64(1)) == page_loads(d, 1)


class TestPermutePages:
    @pytest.mark.parametrize("perm", [[True, False], [1.0, 0.0], [1, 0.0], ["1", "0"], [np.bool_(True), 0]])
    def test_non_integer_entries(self, perm):
        # sorted(perm) == [0, 1] holds for the first three
        d = block_cyclic(3, 4, 2)
        with pytest.raises(ValueError, match="perm entries must be integers"):
            permute_pages(d, perm)

    @pytest.mark.parametrize("perm", [[0, 0], [1, 2], [0], [0, 1, 2]])
    def test_not_a_permutation(self, perm):
        d = block_cyclic(3, 4, 2)
        with pytest.raises(ValueError, match="perm must be a permutation"):
            permute_pages(d, perm)

    def test_relabels_pages(self):
        d = block_cyclic(3, 4, 2)
        for perm in ([1, 0], [np.int64(1), np.int64(0)], np.array([1, 0])):
            assert permute_pages(d, perm).page_array.tolist() == (1 - d.page_array).tolist()
        assert permute_pages(d, [0, 1]) == d


class TestIsBalanced:
    def test_balanced_five_and_six(self):
        assert is_balanced_embedding(balanced_embedding(5))
        assert is_balanced_embedding(balanced_embedding(6))

    def test_unbalanced_load_pattern_rejected(self):
        # crossing-free 2-page drawing of K_{3,2} with a white vertex of load 3:
        # not balanced even though it is an embedding
        lay = layout_of(("b", 0), ("b", 1), ("b", 2), ("w", 0), ("w", 1))
        pages = {
            (0, 0): 0, (1, 0): 0, (2, 0): 0,
            (0, 1): 1, (1, 1): 1, (2, 1): 1,
        }
        d = BookDrawing(lay, 2, pages)
        assert count_crossings(d).total == 0
        assert not is_balanced_embedding(d)

    def test_wrong_shape_is_an_error(self):
        d = block_cyclic(4, 5, 2)  # m != k+1
        with pytest.raises(ValueError):
            is_balanced_embedding(d)

    def test_crossing_drawing_is_not_balanced(self):
        d = block_cyclic(4, 5, 3)  # m = k+1 but 2 crossings
        assert not is_balanced_embedding(d)


class TestLayoutValidation:
    def test_wrong_length(self):
        with pytest.raises(ValueError):
            CircularLayout((("b", 0),), 1, 1)

    def test_duplicate_vertex(self):
        with pytest.raises(ValueError):
            CircularLayout((("b", 0), ("b", 0), ("w", 0)), 2, 1)

    @pytest.mark.parametrize(
        "seq, m, n",
        [
            ((("b", 0), ("w", 0.0)), 1, 1),
            ((("b", 0), ("w", 0)), 1.0, 1),
            ((("b", 0), ("w", 0)), 1, np.float64(1)),
            ((("b", True), ("b", 0), ("w", 0)), 2, 1),
        ],
        ids=["float_label", "float_m", "numpy_float_n", "bool_label"],
    )
    def test_non_integer_label_or_size(self, seq, m, n):
        # each compares equal to an integer: the first used to build, and its
        # conflict graph raised TypeError; the second raised TypeError here
        with pytest.raises(ValueError, match="must be integers"):
            CircularLayout(seq, m, n)

    def test_numpy_integer_labels_and_sizes(self):
        seq = (("b", np.int64(0)), ("w", np.int32(1)), ("w", 0))
        assert CircularLayout(seq, np.int64(1), np.uint8(2)).white_positions == [2, 1]

    def test_drawing_requires_all_edges(self):
        lay = layout_of(("b", 0), ("w", 0), ("w", 1))
        with pytest.raises(ValueError):
            BookDrawing(lay, 1, {(0, 0): 0})

    def test_drawing_page_range(self):
        lay = layout_of(("b", 0), ("w", 0))
        with pytest.raises(ValueError):
            BookDrawing(lay, 1, {(0, 0): 1})

    def test_positive_k(self):
        lay = layout_of(("b", 0), ("w", 0))
        with pytest.raises(ValueError):
            BookDrawing(lay, 0, {(0, 0): 0})


OTHER_EDGES_ON_PAGE_0 = {(0, 1): 0, (1, 0): 0, (1, 1): 0}


class TestBookDrawingContract:
    def drawing(self):
        rng = random.Random(37)
        return random_drawing(rng, 3, 5, 3)

    def test_mapping_and_array_inputs_agree(self):
        d = self.drawing()
        pages = dict(d.pages)
        array = np.array([[pages[(i, j)] for j in range(5)] for i in range(3)])
        from_mapping = BookDrawing(d.layout, 3, pages)
        from_array = BookDrawing(d.layout, 3, array)
        assert from_mapping == from_array
        assert to_json(from_mapping) == to_json(from_array)
        assert from_array.page_array.tolist() == array.tolist()

    def test_pages_reads_as_a_mapping(self):
        d = self.drawing()
        pages = d.pages
        assert isinstance(pages, Mapping)
        assert len(pages) == 15
        assert list(pages) == [(i, j) for i in range(3) for j in range(5)]
        as_dict = dict(pages)
        assert as_dict == dict(pages.items()) == pages
        assert BookDrawing(d.layout, d.k, as_dict) == d
        assert all(type(p) is int and pages[e] == p for e, p in pages.items())
        assert (2, 4) in pages
        for missing in ((3, 0), (0, 5), (-1, 0), (0, -1), "b0", (0, 0, 0)):
            assert missing not in pages
            with pytest.raises(KeyError):
                pages[missing]

    def test_page_array_is_a_read_only_copy(self):
        d = self.drawing()
        array = d.page_array.copy()
        again = BookDrawing(d.layout, d.k, array)
        array[0, 0] = (array[0, 0] + 1) % d.k
        assert again == d
        with pytest.raises(ValueError):
            again.page_array[0, 0] = 0

    def test_page_array_cannot_be_made_writeable(self):
        # the flag used to flip back to True, which would leave a stored report stale
        d = self.drawing()
        before = d.page_array.tolist()
        report = count_crossings(d)
        with pytest.raises(ValueError):
            d.page_array.flags.writeable = True
        assert not d.page_array.flags.writeable
        assert d.page_array.tolist() == before
        assert count_crossings(d) == reference_count_crossings(d) == report

    @pytest.mark.parametrize("name", ["layout", "k", "page_array", "_report"])
    def test_attributes_cannot_be_reassigned(self, name):
        d = self.drawing()
        count_crossings(d)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(d, name, getattr(d, name))

    def test_counted_once(self):
        d = self.drawing()
        assert count_crossings(d) is count_crossings(d)

    @pytest.mark.parametrize(
        "convert",
        [
            lambda a: np.asfortranarray(a),
            lambda a: a.astype(np.int32),
            lambda a: a.tolist(),
            lambda a: {(i, j): p for i, row in enumerate(a.tolist()) for j, p in enumerate(row)},
        ],
        ids=["fortran_int64", "int32", "nested_lists", "mapping"],
    )
    def test_every_input_gives_a_c_ordered_read_only_array(self, convert):
        d = random_drawing(random.Random(43), 6, 9, 3)
        again = BookDrawing(d.layout, d.k, convert(d.page_array.copy()))
        array = again.page_array
        assert array.dtype == np.int64 and array.flags.c_contiguous and not array.flags.writeable
        assert again == d
        assert count_crossings(again) == reference_count_crossings(d)

    @pytest.mark.parametrize(
        "rebuild",
        [
            lambda d: pickle.loads(pickle.dumps(d)),
            copy.copy,
            lambda d: from_json(to_json(d)),
            lambda d: permute_pages(d, [2, 0, 1]),
        ],
        ids=["pickle", "copy", "json", "permute_pages"],
    )
    def test_rebuilt_drawings_count_afresh(self, rebuild):
        d = random_drawing(random.Random(47), 6, 9, 3)
        count_crossings(d)
        again = rebuild(d)
        assert count_crossings(again) == reference_count_crossings(again)
        assert count_crossings(again).total == count_crossings(d).total

    def test_inequality(self):
        d = self.drawing()
        assert BookDrawing(d.layout, d.k + 1, d.page_array) != d
        assert BookDrawing(d.layout, d.k, (d.page_array + 1) % d.k) != d
        assert BookDrawing(d.layout.rotated(1), d.k, d.page_array) != d
        assert d.__eq__(1) is NotImplemented and d != 1

    def test_repr_shows_the_page_array(self):
        d = self.drawing()
        assert repr(d) == f"BookDrawing(layout={d.layout!r}, k=3, page_array={d.page_array.tolist()!r})"

    def test_pickle_round_trip(self):
        d = blowup(balanced_embedding(4), 9)
        again = pickle.loads(pickle.dumps(d))
        assert again == d
        assert to_json(again) == to_json(d)
        assert count_crossings(again) == count_crossings(d)

    @pytest.mark.parametrize(
        "array",
        [np.zeros((5, 3), dtype=int), np.zeros((3, 4), dtype=int), np.zeros(15, dtype=int)],
        ids=["transposed", "too_few_columns", "flat"],
    )
    def test_wrong_array_shape(self, array):
        d = self.drawing()
        with pytest.raises(ValueError, match="page array"):
            BookDrawing(d.layout, 3, array)

    @pytest.mark.parametrize(
        "pages",
        [
            {(0, 0): 1.9, **OTHER_EDGES_ON_PAGE_0},
            {(0, 0): True, **OTHER_EDGES_ON_PAGE_0},
            {(0, 0): np.True_, **OTHER_EDGES_ON_PAGE_0},
            {(0, 0): "1", **OTHER_EDGES_ON_PAGE_0},
            {(0.0, 0): 1, **OTHER_EDGES_ON_PAGE_0},
            [[True, 0], [0, 0]],
            {5: 1, **OTHER_EDGES_ON_PAGE_0},
            {(0, 0): [1], **OTHER_EDGES_ON_PAGE_0},
            np.array([[1.0, 0.0], [0.0, 0.0]]),
            [[True, False], [False, False]],
        ],
        ids=["float", "bool", "numpy_bool", "str", "float_key", "bool_in_list", "key_not_a_pair",
             "list_page", "float_array", "bool_list"],
    )
    def test_non_integer_page_or_edge(self, pages):
        # the first six used to build, each with page 1 on edge (0, 0)
        with pytest.raises(ValueError, match="integers|pairs"):
            BookDrawing(layout_from_string("1100"), 2, pages)

    def test_numpy_integer_keys_and_pages(self):
        pages = {(np.int64(0), np.uint8(0)): np.int32(1), **OTHER_EDGES_ON_PAGE_0}
        d = BookDrawing(layout_from_string("1100"), 2, pages)
        assert d.page_array.tolist() == [[1, 0], [0, 0]]
        assert BookDrawing(d.layout, 2, [[np.int64(1), 0], (0, np.uint16(0))]) == d

    @pytest.mark.parametrize("page", [-1, 3, 7])
    def test_page_out_of_range(self, page):
        d = self.drawing()
        array = d.page_array.copy()
        array[1, 2] = page
        with pytest.raises(ValueError, match=f"page {page} out of range for k=3"):
            BookDrawing(d.layout, 3, array)

    def test_non_integer_array(self):
        d = self.drawing()
        with pytest.raises(ValueError, match="integers"):
            BookDrawing(d.layout, 3, d.page_array.astype(float))

    def test_page_count_beyond_64_bits(self):
        d = self.drawing()
        for k in (2**63 - 1, 2**63):
            with pytest.raises(ValueError, match=f"^page count k={k} above the 1048576 pages a drawing may have$"):
                BookDrawing(d.layout, k, d.page_array)

    @pytest.mark.parametrize("k", [2**40, 2**63 - 1])
    @pytest.mark.parametrize(
        "count", [count_crossings, lambda d: page_loads(d, 0), render_svg], ids=["crossings", "loads", "svg"]
    )
    def test_huge_page_count_not_counted(self, k, count):
        # counting once failed inside numpy (an 8 TiB allocation, "array is
        # too big"); now no such drawing can be built to be counted
        d = self.drawing()
        with pytest.raises(ValueError, match=f"page count k={k} above the 1048576 pages"):
            count(BookDrawing(d.layout, k, d.page_array))

    @pytest.mark.parametrize(
        "build",
        [
            lambda k: BookDrawing(layout_from_string("10"), k, [[k - 1]]),
            lambda k: block_cyclic(1, 1, k),
            lambda k: coloring.coloring_to_drawing(layout_from_string("10"), [k - 1], k),
            lambda k: from_json('{"m": 1, "n": 1, "k": %d, "order": ["b0", "w0"], "edges": [[0, 0, %d]]}' % (k, k - 1)),
        ],
        ids=["BookDrawing", "block_cyclic", "coloring_to_drawing", "from_json"],
    )
    def test_one_page_count_rule(self, build):
        # however a drawing is made, it has at most 2**20 pages and reads back
        d = build(2**20)
        assert d.k == 2**20 and from_json(to_json(d)) == d
        with pytest.raises(ValueError, match="^page count k=1048577 above the 1048576 pages a drawing may have$"):
            build(2**20 + 1)

    def test_block_cyclic_checks_page_count_first(self):
        # refused before the loop over the k groups, so at once
        with pytest.raises(ValueError, match="^page count k=1000000000000 above the 1048576 pages"):
            block_cyclic(2, 2, 10**12)


class TestJson:
    def test_round_trip_identity(self):
        d = blowup(balanced_embedding(3), 6)
        again = from_json(to_json(d))
        assert again == d
        assert count_crossings(again) == count_crossings(d)

    @pytest.mark.parametrize(
        "seq,m",
        [((("b", False), ("w", 0)), 1), ((("b", 0), ("w", 0.0)), 1), ((("b", 0), ("w", 0)), True)],
        ids=["bool_label", "float_label", "bool_m"],
    )
    def test_non_integer_layout_rejected(self, seq, m):
        # each used to build, and to_json wrote "bFalse", "w0.0" or "m": true,
        # which from_json rejects
        with pytest.raises(ValueError, match="must be integers"):
            BookDrawing(CircularLayout(seq, m, 1), 1, {(0, 0): 0})

    @pytest.mark.parametrize("k", [True, 2.0, 2.5])
    def test_non_integer_page_count_rejected(self, k):
        # each used to build, and to_json wrote a k that from_json rejects
        with pytest.raises(ValueError, match="page count k must be an integer"):
            BookDrawing(layout_from_string("1100"), k, np.zeros((2, 2), dtype=int))

    def test_numpy_integers_round_trip(self):
        plain = BookDrawing(layout_from_string("1100"), 2, np.zeros((2, 2), dtype=int))
        drawings = [
            BookDrawing(plain.layout, np.int64(2), plain.page_array),
            BookDrawing(CircularLayout(plain.layout.seq, np.int64(2), np.int32(2)), 2, plain.page_array),
            BookDrawing(CircularLayout.of((c, np.int64(i)) for c, i in plain.layout.seq), 2, plain.page_array),
        ]
        for d in drawings:
            assert to_json(d) == to_json(plain)
            assert from_json(to_json(d)) == d

    def test_rejects_duplicate_edge(self):
        d = block_cyclic(2, 2, 1)
        doc = to_json(d).replace('[0, 0, 0]', '[0, 1, 0]', 1)
        with pytest.raises(DrawingFormatError):
            from_json(doc)

    def test_rejects_missing_edge(self):
        d = block_cyclic(2, 2, 1)
        doc = to_json(d).replace('[0, 0, 0], ', '', 1)
        with pytest.raises(DrawingFormatError):
            from_json(doc)

    def test_rejects_bad_page(self):
        d = block_cyclic(2, 2, 2)
        doc = to_json(d).replace('"k": 2', '"k": 1')
        with pytest.raises(DrawingFormatError):
            from_json(doc)

    @pytest.mark.parametrize("edge", ["[1, 1, %d]" % 2**70, "[1, %d, 0]" % 2**70, "[1, 1, %d]" % -2**70])
    def test_rejects_integers_beyond_64_bits(self, edge):
        doc = to_json(block_cyclic(2, 2, 1)).replace("[1, 1, 0]", edge)
        with pytest.raises(DrawingFormatError, match="out of range"):
            from_json(doc)

    @pytest.mark.parametrize(
        "old, new",
        [('"k": 1', '"k": 1.0'), ('"k": 1', '"k": true'), ('"m": 2', '"m": "2"'),
         ("[1, 1, 0]", "[1, 1, 0.0]"), ("[1, 1, 0]", "[1, true, 0]"), ("[1, 1, 0]", "[1, 1, [0]]")],
        ids=["float_k", "bool_k", "string_m", "float_page", "bool_vertex", "list_page"],
    )
    def test_rejects_non_integer_fields(self, old, new):
        doc = to_json(block_cyclic(2, 2, 1)).replace(old, new)
        with pytest.raises(DrawingFormatError, match="integer"):
            from_json(doc)

    def test_page_count_cap(self):
        doc = '{"m": 1, "n": 1, "k": %d, "order": ["b0", "w0"], "edges": [[0, 0, 0]]}'
        assert from_json(doc % 2**20).k == 2**20
        for k in (2**20 + 1, 2**63):
            with pytest.raises(DrawingFormatError, match=f"^page count k={k} above the 1048576 pages a drawing may have$"):
                from_json(doc % k)

    def test_rejects_edge_out_of_range(self):
        doc = to_json(block_cyclic(2, 2, 1)).replace("[1, 1, 0]", "[2, 0, 0]")
        assert '"edges": [[0, 0, 0], [0, 1, 0], [1, 0, 0], [2, 0, 0]]' in doc
        with pytest.raises(DrawingFormatError, match=r"edge \(2,0\) out of range"):
            from_json(doc)

    def test_rejects_bad_token(self):
        d = block_cyclic(2, 2, 1)
        doc = to_json(d).replace('"b0"', '"x0"')
        with pytest.raises(DrawingFormatError):
            from_json(doc)

    def test_rejects_garbage(self):
        with pytest.raises(DrawingFormatError):
            from_json("not json at all")
        with pytest.raises(DrawingFormatError):
            from_json("[1, 2, 3]")


K22 = coloring.conflict_graph(layout_from_string("1100"))

# (entry point, a call that passes v as the named argument, its name, its least value)
INTEGER_ARGUMENTS = [
    ("BookDrawing", lambda v: BookDrawing(layout_from_string("10"), v, [[0]]), "page count k", 1),
    ("page_loads", lambda v: page_loads(block_cyclic(3, 4, 2), v), "white vertex", 0),
    ("zarankiewicz", lambda v: bounds.zarankiewicz(v, 5), "m", 0),
    ("riskin_value", lambda v: bounds.riskin_value(v, 5), "m", 1),
    ("turan_lower_s", lambda v: bounds.turan_lower(3, 5, v), "s", 1),
    ("turan_lower_n", lambda v: bounds.turan_lower(3, v, 4), "n", 0),
    ("exact_crossing_number", lambda v: bounds.exact_crossing_number(v, 5), "k", 1),
    ("asymptotic_bounds", lambda v: bounds.asymptotic_bounds(3, v), "n", 1),
    ("multiplanar_lower_even", lambda v: bounds.multiplanar_lower_even(v, 5), "k", 1),
    ("general_lower", lambda v: bounds.general_lower(v, 3, 3), "k", 1),
    ("block_cyclic_bound", lambda v: bounds.block_cyclic_bound(v, 4, 5), "k", 1),
    ("nonembeddable_width", lambda v: bounds.nonembeddable_width(v), "k", 1),
    ("family_rows", lambda v: bounds.family_rows(3, v), "n", 1),
    ("general_rows", lambda v: bounds.general_rows(3, v, 4), "m", 1),
    ("cli_bounds_scan", lambda v: cli._cmd_bounds(Namespace(params=[3, v], scan=True)), "n", 1),
    ("is_k_colorable_k", lambda v: coloring.is_k_colorable(K22, v), "k", 1),
    ("is_k_colorable_budget", lambda v: coloring.is_k_colorable(K22, 2, v), "budget", 0),
    ("export_cnf", lambda v: coloring.export_cnf(K22, v), "k", 1),
    ("verify_positive_crossing", lambda v: coloring.verify_positive_crossing(v, 5, 3), "m", 1),
    ("riskin_drawing", lambda v: riskin_drawing(3, v), "n", 1),
    ("BalancedParams", lambda v: BalancedParams.for_pages(v), "k", 1),
    ("block_cyclic", lambda v: block_cyclic(v, 3, 2), "m", 1),
    ("blowup", lambda v: blowup(balanced_embedding(3), v), "n", 4),
    ("blowup_crossing_count", lambda v: blowup_crossing_count(3, v), "n", 4),
    ("necklace_classes", lambda v: enumeration.necklace_classes(4, v), "n", 1),
    ("count_formula", lambda v: enumeration.count_formula(v, 5), "m", 1),
    ("OracleLimits", lambda v: oracle.OracleLimits(max_pages=v), "max_pages", 0),
    ("brute_force_run", lambda v: oracle.brute_force_run(v, 3, 2), "m", 1),
]


@pytest.mark.parametrize("value", [True, 2.0, 2.5, "3", "below"])
@pytest.mark.parametrize(
    "call, name, low", [row[1:] for row in INTEGER_ARGUMENTS], ids=[row[0] for row in INTEGER_ARGUMENTS]
)
def test_integer_argument_rule(call, name, low, value):
    """Every size, page count, budget and index argument takes one rule: a
    non-integer, a bool among them, or an integer below the least raises
    ValueError naming the argument."""
    if value == "below":
        value = low - 1
        least = {1: "positive", 0: "non-negative"}.get(low, f"at least {low}")
        message = f"{name} must be {least}, got {value}"
    else:
        message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)
