"""Unit tests for circular identifier-space arithmetic."""

import pytest

from repro.overlay.idspace import IdSpace
from tests.reference.overlay import closest_to


class TestBasics:
    def test_size(self):
        assert IdSpace(bits=8).size == 256

    def test_bits_bounds(self):
        with pytest.raises(ValueError):
            IdSpace(bits=0)
        with pytest.raises(ValueError):
            IdSpace(bits=257)

    def test_contains_and_validate(self):
        space = IdSpace(bits=4)
        assert space.contains(0) and space.contains(15)
        assert not space.contains(16) and not space.contains(-1)
        with pytest.raises(ValueError):
            space.validate(16)
        assert space.validate(7) == 7

    def test_normalize_wraps(self):
        space = IdSpace(bits=4)
        assert space.normalize(16) == 0
        assert space.normalize(-1) == 15

    def test_hash_key_in_range_and_deterministic(self):
        space = IdSpace(bits=16)
        key = space.hash_key("http://example.org/object/1")
        assert 0 <= key < space.size
        assert key == space.hash_key("http://example.org/object/1")
        assert key != space.hash_key("http://example.org/object/2")


class TestDistances:
    def test_circular_distance_is_shorter_way(self):
        space = IdSpace(bits=4)
        assert space.circular_distance(0, 15) == 1
        assert space.circular_distance(0, 8) == 8
        assert space.circular_distance(3, 5) == 2

    def test_circular_distance_is_symmetric(self):
        space = IdSpace(bits=6)
        for a, b in [(0, 10), (60, 3), (31, 32)]:
            assert space.circular_distance(a, b) == space.circular_distance(b, a)


class TestClosestInSorted:
    def test_exact_match_wins(self):
        space = IdSpace(bits=8)
        assert space.closest_in_sorted(100, [3, 100, 200]) == 100

    def test_numerically_closest_across_wrap(self):
        space = IdSpace(bits=8)
        assert space.closest_in_sorted(1, [120, 250]) == 250  # distance 7 vs 119

    def test_tie_broken_clockwise(self):
        space = IdSpace(bits=8)
        # 10 is equidistant from 5 and 15; the clockwise candidate (15) wins.
        assert space.closest_in_sorted(10, [5, 15]) == 15

    def test_empty_candidates_raise(self):
        with pytest.raises(ValueError):
            IdSpace(bits=8).closest_in_sorted(1, [])

    def test_single_candidate(self):
        assert IdSpace(bits=8).closest_in_sorted(0, [77]) == 77


class TestClosestTo:
    """The plain-minimum oracle ``closest_in_sorted`` is compared against
    holds to the same rules on unsorted candidates."""

    def test_exact_match_wins(self):
        assert closest_to(IdSpace(bits=8), 100, [3, 100, 200]) == 100

    def test_numerically_closest_across_wrap(self):
        assert closest_to(IdSpace(bits=8), 1, [250, 120]) == 250  # distance 7 vs 119

    def test_tie_broken_clockwise(self):
        # 10 is equidistant from 5 and 15; the clockwise candidate (15) wins.
        assert closest_to(IdSpace(bits=8), 10, [15, 5]) == 15

    def test_empty_candidates_raise(self):
        with pytest.raises(ValueError):
            closest_to(IdSpace(bits=8), 1, [])

    def test_single_candidate(self):
        assert closest_to(IdSpace(bits=8), 0, [77]) == 77
