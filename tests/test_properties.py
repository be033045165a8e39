"""Property-based tests (hypothesis) for the core data structures and invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastructures.aged_view import AgedEntry, AgedView
from repro.datastructures.bloom import BloomFilter
from repro.datastructures.lru import LRUCache
from repro.metrics.histogram import Histogram
from repro.metrics.timeseries import TimeSeries
from repro.overlay.chord import ChordRing
from repro.overlay.idspace import IdSpace
from repro.workload.zipf import ZipfSampler
from tests.reference.overlay import closest_to, successor_of
from tests.reference.workload import zipf_masses

# -- Bloom filters -----------------------------------------------------------------

object_ids = st.text(min_size=1, max_size=30)


@given(st.lists(object_ids, min_size=0, max_size=100))
def test_bloom_never_has_false_negatives(items):
    bloom = BloomFilter(num_bits=1024, num_hashes=4)
    bloom.update(items)
    assert all(item in bloom for item in items)


@given(st.lists(object_ids, min_size=0, max_size=80))
def test_bloom_fill_ratio_bounds(items):
    bloom = BloomFilter(num_bits=256, num_hashes=3)
    bloom.update(items)
    assert 0.0 <= bloom.fill_ratio <= 1.0


# -- Aged views -----------------------------------------------------------------------

entries = st.lists(
    st.tuples(st.sampled_from([f"p{i}" for i in range(30)]), st.integers(0, 20)),
    min_size=0,
    max_size=60,
)


@given(entries, st.integers(1, 10))
def test_aged_view_never_exceeds_capacity(pairs, capacity):
    view = AgedView(capacity=capacity)
    view.merge(AgedEntry(contact=c, age=a) for c, a in pairs)
    assert len(view) <= capacity


@given(entries, st.integers(1, 10))
def test_aged_view_merge_keeps_minimum_age(pairs, capacity):
    view = AgedView(capacity=None)
    view.merge(AgedEntry(contact=c, age=a) for c, a in pairs)
    minimum_age = {}
    for contact, age in pairs:
        minimum_age[contact] = min(age, minimum_age.get(contact, age))
    for entry in view:
        assert entry.age == minimum_age[entry.contact]


@given(entries)
def test_aged_view_increment_preserves_membership(pairs):
    view = AgedView(capacity=None)
    view.merge(AgedEntry(contact=c, age=a) for c, a in pairs)
    before = set(view.contacts())
    view.increment_ages()
    assert set(view.contacts()) == before


@given(entries, st.integers(0, 15))
def test_aged_view_subset_selection_is_bounded_and_member(pairs, size):
    view = AgedView(capacity=None)
    view.merge(AgedEntry(contact=c, age=a) for c, a in pairs)
    subset = view.select_subset(size, rng=random.Random(0))
    assert len(subset) <= size
    assert all(entry.contact in view for entry in subset)


# -- LRU cache ---------------------------------------------------------------------------

@given(st.lists(st.integers(0, 50), min_size=0, max_size=200), st.integers(1, 10))
def test_lru_never_exceeds_capacity_and_keeps_recent(keys, capacity):
    cache = LRUCache(capacity=capacity)
    for key in keys:
        cache.put(key, key)
    assert len(cache) <= capacity
    if keys:
        assert keys[-1] in cache  # the most recent insertion always survives


# -- Identifier space ----------------------------------------------------------------------

ids_16 = st.integers(0, (1 << 16) - 1)


@given(ids_16, ids_16)
def test_idspace_distances_are_consistent(a, b):
    space = IdSpace(bits=16)
    forward = (b - a) % space.size
    backward = (a - b) % space.size
    assert (forward + backward) % space.size == 0
    assert space.circular_distance(a, b) == min(forward, backward)
    assert space.circular_distance(a, b) == space.circular_distance(b, a)


@given(ids_16, st.lists(ids_16, min_size=1, max_size=30))
def test_idspace_closest_in_sorted_minimises_circular_distance(key, candidates):
    space = IdSpace(bits=16)
    winner = space.closest_in_sorted(key, sorted(set(candidates)))
    best = min(space.circular_distance(key, c) for c in candidates)
    assert space.circular_distance(key, winner) == best


@given(ids_16, st.lists(ids_16, min_size=1, max_size=30))
def test_idspace_closest_to_minimises_circular_distance(key, candidates):
    space = IdSpace(bits=16)
    winner = closest_to(space, key, candidates)
    assert winner in candidates
    best = min(space.circular_distance(key, c) for c in candidates)
    assert space.circular_distance(key, winner) == best


# -- Chord routing -----------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(0, (1 << 12) - 1), min_size=2, max_size=40, unique=True),
    st.integers(0, (1 << 12) - 1),
)
def test_ideal_route_always_terminates_at_the_successor(node_ids, key):
    space = IdSpace(bits=12)
    ring = ChordRing(space, auto_stabilize=False)
    for node_id in node_ids:
        ring.join(node_id)
    start = node_ids[0]
    path = ring.ideal_route(start, key)
    assert path[0] == start
    assert path[-1] == successor_of(ring, key)
    assert len(path) <= 4 * space.bits + 1
    assert all(node in ring for node in path)


# -- Zipf sampling --------------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(2, 200), st.floats(0.0, 2.0))
def test_zipf_cdf_steps_are_the_masses(population, alpha):
    cdf = ZipfSampler(population, alpha=alpha)._cdf
    assert cdf[-1] == 1.0
    masses = zipf_masses(population, alpha)
    steps = [high - low for low, high in zip([0.0] + cdf, cdf)]
    assert all(abs(step - mass) < 1e-9 for step, mass in zip(steps, masses))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 100), st.integers(0, 500))
def test_zipf_samples_stay_in_range(population, draws):
    sampler = ZipfSampler(population, alpha=0.8)
    rng = random.Random(0)
    assert all(0 <= sampler.sample(rng) < population for _ in range(draws))


# -- Metrics --------------------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=0, max_size=200))
def test_histogram_counts_everything_once(values):
    histogram = Histogram(bin_width=100, num_bins=10)
    histogram.extend(values)
    assert histogram.total == len(values)
    assert sum(b.count for b in histogram.bins()) == len(values)
    if values:
        epsilon = 1e-9 * max(1.0, max(values))
        assert min(values) - epsilon <= histogram.mean <= max(values) + epsilon


@given(
    st.lists(
        st.tuples(st.floats(0, 1e5), st.floats(0, 1e3)), min_size=0, max_size=200
    )
)
def test_timeseries_cumulative_mean_equals_overall_mean_at_the_end(samples):
    series = TimeSeries(window_s=500)
    for time, value in samples:
        series.add(time, value)
    if not samples:
        assert series.cumulative_means() == []
        return
    final_cumulative = series.cumulative_means()[-1][1]
    overall_mean = sum(value for _, value in samples) / len(samples)
    assert abs(final_cumulative - overall_mean) < 1e-6
