"""Unit tests for the Bloom filter used by content and directory summaries."""

import math

import pytest

from repro.datastructures.bloom import BloomFilter


class TestConstruction:
    def test_rejects_non_positive_sizes(self):
        with pytest.raises(ValueError):
            BloomFilter(num_bits=0)
        with pytest.raises(ValueError):
            BloomFilter(num_bits=8, num_hashes=0)

    def test_default_hash_count_from_expected_items(self):
        bloom = BloomFilter(num_bits=800, expected_items=100)
        assert 3 <= bloom.num_hashes <= 8

    def test_default_hash_count_is_optimal_at_paper_sizing(self):
        # Table 1: 8 bits per object; k = (m / n) ln 2 = 8 ln 2 rounds to 6.
        assert BloomFilter(num_bits=4000, expected_items=500).num_hashes == 6

    def test_from_bits_wraps_a_packed_array(self):
        bloom = BloomFilter.from_items(["a", "b"], num_bits=256, num_hashes=3)
        wrapped = BloomFilter.from_bits(bloom._bits, num_bits=256, num_hashes=3)
        assert wrapped == bloom
        assert "a" in wrapped and "b" in wrapped
        packed = bloom._bits
        wrapped.add("c")
        assert bloom._bits == packed  # adding to the wrapper leaves the source alone

    def test_from_items_contains_all_items(self):
        items = [f"http://site/object/{i}" for i in range(50)]
        bloom = BloomFilter.from_items(items, num_bits=800)
        assert all(item in bloom for item in items)


class TestMembership:
    def test_no_false_negatives(self):
        bloom = BloomFilter(num_bits=2048)
        items = [f"obj-{i}" for i in range(200)]
        bloom.update(items)
        assert all(item in bloom for item in items)

    def test_empty_filter_contains_nothing(self):
        bloom = BloomFilter(num_bits=256)
        assert "anything" not in bloom
        assert bloom.fill_ratio == 0.0

    def test_false_positive_rate_is_bounded_when_sized_correctly(self):
        bloom = BloomFilter(num_bits=800, expected_items=100)
        bloom.update(f"present-{i}" for i in range(100))
        false_positives = sum(1 for i in range(2000) if f"absent-{i}" in bloom)
        assert false_positives / 2000 < 0.1

    def test_clear_resets_filter(self):
        bloom = BloomFilter(num_bits=128)
        bloom.add("x")
        bloom.clear()
        assert "x" not in bloom
        assert bloom.fill_ratio == 0.0


class TestIntrospection:
    def test_fill_ratio_grows_with_items(self):
        bloom = BloomFilter(num_bits=512)
        previous = 0.0
        for i in range(0, 50, 10):
            bloom.update(f"item-{j}" for j in range(i, i + 10))
            assert bloom.fill_ratio >= previous
            previous = bloom.fill_ratio

    @pytest.mark.parametrize("num_bits, items", [(800, 100), (4000, 500), (2048, 300)])
    def test_false_positive_rate_matches_the_analytic_estimate(self, num_bits, items):
        bloom = BloomFilter(num_bits=num_bits, expected_items=items)
        bloom.update(f"present-{i}" for i in range(items))
        k = bloom.num_hashes
        expected = (1.0 - math.exp(-k * items / num_bits)) ** k
        observed = sum(1 for i in range(20000) if f"absent-{i}" in bloom) / 20000
        assert 0.75 * expected < observed < 1.33 * expected


class TestCopyAndEquality:
    def test_copy_is_independent(self):
        a = BloomFilter(num_bits=128)
        a.add("x")
        clone = a.copy()
        clone.add("y")
        assert "y" in clone
        assert "y" not in a or a == clone  # adding to the clone must not alter the original bits
        assert "x" in a

    def test_equality_by_bits(self):
        a = BloomFilter(num_bits=128, num_hashes=3)
        b = BloomFilter(num_bits=128, num_hashes=3)
        a.add("same")
        b.add("same")
        assert a == b
        b.add("more")
        assert a != b

    def test_equality_with_other_types(self):
        assert BloomFilter(num_bits=8) != "not a filter"

    def test_repr_mentions_size(self):
        assert "bits=128" in repr(BloomFilter(num_bits=128))
