"""Unit tests for aged views (gossip views / directory ageing) and the LRU cache."""

import random

import pytest

from repro.datastructures.aged_view import AgedEntry, AgedView
from repro.datastructures.lru import LRUCache


class TestAgedEntry:
    def test_aged_returns_new_entry(self):
        entry = AgedEntry(contact="p1", age=2)
        older = entry.aged()
        assert older.age == 3
        assert entry.age == 2  # immutable

    def test_refreshed_resets_age_and_keeps_payload(self):
        entry = AgedEntry(contact="p1", age=5, payload="summary")
        fresh = entry.refreshed()
        assert fresh.age == 0
        assert fresh.payload == "summary"

    def test_refreshed_with_new_payload(self):
        entry = AgedEntry(contact="p1", age=5, payload="old")
        assert entry.refreshed(payload="new").payload == "new"


class TestAgedView:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AgedView(capacity=0)

    def test_put_and_get(self):
        view = AgedView(capacity=5)
        view.put(AgedEntry("a", age=1))
        assert "a" in view
        assert view.get("a").age == 1
        assert len(view) == 1

    def test_refresh_creates_or_resets(self):
        view = AgedView(capacity=5)
        view.refresh("a")
        assert view.get("a").age == 0
        view.increment_ages()
        assert view.get("a").age == 1
        view.refresh("a")
        assert view.get("a").age == 0

    def test_increment_ages_applies_to_all(self):
        view = AgedView(capacity=5)
        view.put(AgedEntry("a", age=0))
        view.put(AgedEntry("b", age=2))
        view.increment_ages()
        assert view.get("a").age == 1
        assert view.get("b").age == 3

    def test_select_oldest_and_youngest(self):
        view = AgedView(capacity=5)
        view.put(AgedEntry("old", age=9))
        view.put(AgedEntry("young", age=1))
        assert view.select_oldest().contact == "old"
        assert view.select_youngest().contact == "young"

    def test_select_on_empty_view_returns_none(self):
        view = AgedView(capacity=5)
        assert view.select_oldest() is None
        assert view.select_youngest() is None

    def test_select_subset_size_and_exclusion(self):
        view = AgedView(capacity=10)
        for i in range(6):
            view.put(AgedEntry(f"p{i}", age=i))
        subset = view.select_subset(3, rng=random.Random(1))
        assert len(subset) == 3
        excluded = view.select_subset(10, exclude=["p0", "p1"])
        assert all(entry.contact not in ("p0", "p1") for entry in excluded)

    def test_select_subset_without_rng_prefers_youngest(self):
        view = AgedView(capacity=10)
        for i in range(5):
            view.put(AgedEntry(f"p{i}", age=i))
        subset = view.select_subset(2)
        assert [e.contact for e in subset] == ["p0", "p1"]

    def test_merge_keeps_smallest_age_for_duplicates(self):
        view = AgedView(capacity=5)
        view.put(AgedEntry("a", age=5))
        view.merge([AgedEntry("a", age=1)])
        assert view.get("a").age == 1
        view.merge([AgedEntry("a", age=9)])
        assert view.get("a").age == 1

    def test_merge_never_adds_self(self):
        view = AgedView(capacity=5)
        view.merge([AgedEntry("me", age=0), AgedEntry("other", age=0)], self_contact="me")
        assert "me" not in view
        assert "other" in view

    def test_merge_trims_to_most_recent(self):
        view = AgedView(capacity=3)
        view.merge([AgedEntry(f"p{i}", age=i) for i in range(10)])
        assert len(view) == 3
        assert set(view.contacts()) == {"p0", "p1", "p2"}

    def test_evict_older_than(self):
        view = AgedView(capacity=10)
        view.put(AgedEntry("fresh", age=1))
        view.put(AgedEntry("stale", age=8))
        evicted = view.evict_older_than(4)
        assert [e.contact for e in evicted] == ["stale"]
        assert "stale" not in view

    def test_remove_and_clear(self):
        view = AgedView(capacity=5)
        view.put(AgedEntry("a"))
        assert view.remove("a")
        assert not view.remove("a")
        view.put(AgedEntry("b"))
        view.clear()
        assert len(view) == 0

    def test_unbounded_view_never_trims(self):
        view = AgedView(capacity=None)
        view.merge([AgedEntry(f"p{i}", age=i) for i in range(100)])
        assert len(view) == 100


class TestLRUCache:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)

    def test_eviction_order_is_least_recently_used(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 1)  # refresh a
        evicted = cache.put("c", 3)
        assert evicted == ("b", 2)
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_membership_does_not_affect_recency(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert "a" in cache
        evicted = cache.put("c", 3)
        assert evicted == ("a", 1)

    def test_update_existing_key_does_not_evict(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.put("a", 10) is None
        assert len(cache) == 2 and cache.put("c", 3) == ("b", 2)

    def test_unbounded_cache_never_evicts(self):
        cache = LRUCache()
        for i in range(1000):
            assert cache.put(i, i) is None
        assert len(cache) == 1000
