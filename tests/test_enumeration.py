import copy
import dataclasses
import math
import pickle
import random
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from bookcross.cli import main
from bookcross.enumeration import (
    NecklaceClass,
    _bracelets,
    _rotation_fixed_points,
    canonical_form,
    count_formula,
    enumerate_layouts,
    layout_from_string,
    necklace_classes,
)

from conftest import reference_bracelets, reference_count_formula


class TestCanonicalForm:
    def test_rotation(self):
        assert canonical_form("0110") == "0011"

    def test_already_minimal(self):
        assert canonical_form("0101") == "0101"

    def test_reflection_needed(self):
        assert canonical_form("10010") == "00101"

    def test_idempotent_on_random_strings(self):
        rng = random.Random(101)
        for _ in range(200):
            s = "".join(rng.choice("01") for _ in range(rng.randint(1, 14)))
            c = canonical_form(s)
            assert canonical_form(c) == c

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            canonical_form("")


class TestCountFormula:
    @pytest.mark.parametrize(
        "m,n,expected",
        [(4, 5, 10), (5, 7, 38), (7, 13, 1980), (1, 1, 1), (6, 10, 280)],
    )
    def test_known_counts(self, m, n, expected):
        assert count_formula(m, n) == expected

    def test_matches_reference_formula(self):
        for m in range(1, 101):
            for n in range(1, 101):
                assert count_formula(m, n) == reference_count_formula(m, n), (m, n)

    def test_rotation_sum_over_divisors(self):
        # one term per cycle length e, weighted by phi(e), against one per rotation
        for size in range(2, 61):
            for m in range(1, size):
                cycles = [math.gcd(t, size) for t in range(size)]
                per_rotation = sum(math.comb(g, m * g // size) for g in cycles if m % (size // g) == 0)
                assert _rotation_fixed_points(m, size - m) == per_rotation, (m, size - m)

    def test_symmetric(self):
        for m in range(1, 8):
            for n in range(1, 8):
                assert count_formula(m, n) == count_formula(n, m)

    def test_positive_arguments_required(self):
        with pytest.raises(ValueError):
            count_formula(0, 3)


class TestNecklaceClass:
    def test_round_trips(self):
        cls = NecklaceClass("000111", 3)
        for again in (pickle.loads(pickle.dumps(cls)), copy.deepcopy(cls)):
            assert again == cls and hash(again) == hash(cls)
            assert again is not cls

    def test_frozen_equality_and_hash(self):
        cls = NecklaceClass("0011", 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cls.orbit_size = 2
        assert cls == NecklaceClass("0011", 4) != NecklaceClass("0011", 2)
        assert len({cls, NecklaceClass("0011", 4), NecklaceClass("0101", 2)}) == 2
        assert not hasattr(cls, "__dict__")


class TestEnumerateLayouts:
    @pytest.mark.parametrize("m,n,expected", [(4, 5, 10), (5, 7, 38), (1, 1, 1)])
    def test_orbit_counts(self, m, n, expected):
        assert sum(1 for _ in enumerate_layouts(m, n)) == expected

    def test_agrees_with_formula_small(self):
        for total in range(2, 13):
            for m in range(1, total):
                n = total - m
                assert len(necklace_classes(m, n)) == count_formula(m, n), (m, n)

    def test_burnside_orbit_sizes(self):
        for m, n in [(3, 4), (4, 4), (2, 6), (5, 5)]:
            classes = necklace_classes(m, n)
            assert sum(c.orbit_size for c in classes) == math.comb(m + n, m)
            for c in classes:
                assert 2 * (m + n) % c.orbit_size == 0

    def test_emitted_in_lexicographic_canonical_order(self):
        classes = necklace_classes(4, 5)
        strings = [c.canonical for c in classes]
        assert strings == sorted(strings)
        for s in strings:
            assert canonical_form(s) == s
            assert s.count("1") == 4 and s.count("0") == 5

    def test_layout_indices_clockwise(self):
        lay = layout_from_string("01101")
        assert lay.seq == (("w", 0), ("b", 0), ("b", 1), ("w", 1), ("b", 2))
        assert lay.to_bitstring() == "01101"

    def test_bad_pattern_rejected(self):
        with pytest.raises(ValueError):
            layout_from_string("0121")
        with pytest.raises(ValueError):
            layout_from_string("1111")

    def test_matches_brute_force_grouping(self):
        for total in range(2, 15):
            for m in range(1, total):
                orbits = Counter(
                    canonical_form("".join("1" if i in ones else "0" for i in range(total)))
                    for ones in map(set, combinations(range(total), m))
                )
                classes = [(c.canonical, c.orbit_size) for c in necklace_classes(m, total - m)]
                assert classes == sorted(orbits.items()), (m, total - m)
                assert count_formula(m, total - m) == len(orbits), (m, total - m)

    def test_matches_reference_generator(self):
        shapes = [(m, total - m) for total in range(15, 19) for m in range(1, total)]
        skewed = [(2, 500), (500, 2), (3, 200), (200, 3), (40, 3), (3, 40), (5, 40)]
        for m, n in shapes + [(10, 10)] + skewed:
            assert necklace_classes(m, n) == list(reference_bracelets(m, n)), (m, n)

    def test_walk_memory(self):
        # the blocks share one buffer: a prefix string per stack entry
        # traced about 3.5 MB here
        tracemalloc.start()
        try:
            count = sum(1 for _ in _bracelets(2, 3000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == count_formula(2, 3000) == 1501
        assert peak < 2**20

    def test_ascending_at_scale(self):
        # 21,879 classes, walked with the reversal bound on the last two
        # blocks; their orbits cover every one of the C(25, 8) words once
        classes = list(_bracelets(8, 17))
        assert len(classes) == count_formula(8, 17) == 21879
        assert all(a.canonical < b.canonical for a, b in zip(classes, classes[1:]))
        assert sum(c.orbit_size for c in classes) == math.comb(25, 8) == 1081575

    def test_long_skewed_words(self):
        assert necklace_classes(1, 3000) == [NecklaceClass("0" * 3000 + "1", 3001)]
        assert necklace_classes(3000, 1) == [NecklaceClass("0" + "1" * 3000, 3001)]

    def test_lazy_generation(self):
        # about 3.5e13 classes: only the first one is generated
        first = next(enumerate_layouts(20, 40))
        assert first.to_bitstring() == "0" * 40 + "1" * 20

    def test_no_word_length_cap(self, capsys):
        assert len(necklace_classes(3, 30)) == count_formula(3, 30) == 91
        assert main(["enumerate", "3", "30"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 91 and all(len(s) == 33 for s in lines)
        for m, n in [(0, 3), (3, 0), (-1, 2)]:
            with pytest.raises(ValueError):
                necklace_classes(m, n)
            with pytest.raises(ValueError):
                next(enumerate_layouts(m, n))
