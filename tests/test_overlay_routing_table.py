"""The bisected routing table against the flat scan it replaced.

``ChordNode.local_lookup`` / ``lookup_in_range`` (and the Pastry and
ring-ownership call sites) pick the numerically closest node by bisecting a
sorted id list — for Chord nodes a *cached* one.  ``closest_to``
(``tests/reference/overlay.py``) over ``sorted(known_nodes())``, filtered by
a predicate, is the reference these tests keep; they hold the two together,
with the cache-invalidation paths (join, ``fail``, ``forget``,
``stabilize``) interleaved with lookups.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dring import DRing
from repro.core.keys import KeyScheme
from repro.overlay.chord import ChordRing
from repro.overlay.idspace import IdRange, IdSpace
from repro.overlay.node import ChordNode
from repro.overlay.pastry import PastryNode, PastryRing
from repro.overlay.router import KBRRouter
from tests.reference.overlay import closest_to

BITS = 8
SPACE = IdSpace(BITS)
ids = st.integers(0, SPACE.size - 1)


# -- the bisection itself -----------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda bits: st.tuples(
        st.just(bits),
        st.sets(st.integers(0, (1 << bits) - 1), min_size=1, max_size=24),
        st.integers(0, (1 << bits) - 1),
    )
))
def test_closest_in_sorted_equals_closest_to(case):
    bits, members, key = case
    space = IdSpace(bits)
    assert space.closest_in_sorted(key, sorted(members)) == closest_to(space, key, sorted(members))


def test_closest_in_sorted_tie_goes_clockwise():
    # 10 is 6 away from both 4 and 16: closest_to prefers the clockwise one.
    assert closest_to(SPACE, 10, [4, 16]) == 16
    assert SPACE.closest_in_sorted(10, [4, 16]) == 16
    # ... also across the wrap: 0 is 3 away from 253 and from 3.
    assert SPACE.closest_in_sorted(0, [3, 253]) == closest_to(SPACE, 0, [3, 253]) == 3
    with pytest.raises(ValueError):
        SPACE.closest_in_sorted(1, [])


# -- cache invalidation under random interleavings ----------------------------


def reference_lookup(node, key):
    return closest_to(node.idspace, key, sorted(node.known_nodes()))


def reference_conditional(node, key, predicate):
    candidates = sorted(n for n in node.known_nodes() if predicate(n))
    return closest_to(node.idspace, key, candidates) if candidates else None


def reference_in_range(node, key, low, high):
    return reference_conditional(node, key, lambda n: low <= n < high)


ring_ops = st.lists(
    st.one_of(
        st.tuples(st.just("join"), ids, ids),
        st.tuples(st.just("fail"), ids, ids),
        st.tuples(st.just("leave"), ids, ids),
        st.tuples(st.just("forget"), ids, ids),
        st.tuples(st.just("stabilize"), ids, ids),
    ),
    max_size=30,
)


def _pick(population, selector):
    return population[selector % len(population)] if population else None


@settings(max_examples=120, deadline=None)
@given(st.sets(ids, min_size=1, max_size=12), ring_ops, st.lists(ids, min_size=1, max_size=6))
def test_lookups_equal_reference_across_membership_changes(initial, ops, keys):
    ring = ChordRing.build(SPACE, sorted(initial))
    ring.auto_stabilize = False  # joins and leaves leave stale state behind

    def check():
        for node in ring.nodes():
            for key in keys:
                assert node.local_lookup(key) == reference_lookup(node, key)
                # same_prefix is the contiguous range a D-ring website occupies
                same_prefix = lambda n, k=key: n >> 5 == k >> 5  # noqa: E731
                low = key >> 5 << 5
                assert node.lookup_in_range(key, low, low + 32) == (
                    reference_conditional(node, key, same_prefix)
                )

    check()  # populates every node's cached table
    for op, a, b in ops:
        live = ring.live_ids()
        if op == "join":
            if a not in ring:
                ring.join(a)
        elif op in ("fail", "leave"):
            victim = _pick(live, a)
            if victim is not None and len(live) > 1:
                getattr(ring, op)(victim)
        elif op == "forget":
            node = ring.node(_pick([n.node_id for n in ring.nodes()], a))
            node.forget(_pick(node.routing_table(), b))
        else:
            ring.stabilize()
        check()


@settings(max_examples=200, deadline=None)
@given(
    st.sets(ids, min_size=1, max_size=40),
    st.integers(0, 7),  # the website: 8 ranges of 32 ids, incl. both ends of the space
    ids,
    st.sampled_from([ChordRing, PastryRing]),
)
def test_range_bisected_constraint_equals_predicate_filter(members, website, key, ring_class):
    # Algorithm 2's constraint on engineered ids: website = high-order bits.
    ring = ring_class.build(SPACE, sorted(members))
    low, high = website << 5, (website + 1) << 5
    for node in ring.nodes():
        expected = reference_conditional(node, key, lambda n: n >> 5 == website)
        assert node.lookup_in_range(key, low, high) == expected
        if not any(low <= n < high for n in node.known_nodes()):
            assert expected is None  # a node that knows no same-website entry
        assert node.lookup_in_range(key, low, low) is None  # an empty range


def test_website_constraint_is_the_range_of_the_keys_website():
    keys = KeyScheme(website_bits=4, locality_bits=3)
    for website_id in (0, 5, keys.max_websites - 1):  # both ends of the id space
        key = keys.encode(website_id, 2)
        constraint = keys.website_constraint(key)
        assert isinstance(constraint, IdRange)
        for identifier in range(keys.idspace.size):
            in_range = constraint.low <= identifier < constraint.high
            assert in_range == (keys.decode(identifier).website_id == website_id)
    with pytest.raises(ValueError):
        keys.website_constraint(keys.idspace.size)


def test_direct_slot_writes_need_an_explicit_invalidate():
    node = ChordNode(10, SPACE)
    node.successors = [50]
    assert node.local_lookup(52) == 50
    node.successors = [50, 52]
    node.invalidate_routing_table()
    assert node.routing_table() == [10, 50, 52]
    assert node.local_lookup(52) == 52


# -- whole routes: KBRRouter and DRing, Chord and Pastry ----------------------


def _pastry_reference_lookup(node, key):
    """``PastryNode.local_lookup`` as it was before the bisection."""
    known = sorted(node.known_nodes())
    own_prefix = node.shared_prefix_length(key)
    better = [n for n in known if n != node.node_id and node._prefix_length(n, key) > own_prefix]
    best = closest_to(node.idspace, key, better if better else known)
    if node.idspace.circular_distance(key, best) > node.idspace.circular_distance(
        key, node.node_id
    ):
        return node.node_id
    return best


@pytest.fixture
def flat_scan_lookups(monkeypatch):
    """Swap every node-level lookup for its flat-scan reference."""

    def install():
        monkeypatch.setattr(ChordNode, "local_lookup", reference_lookup)
        monkeypatch.setattr(ChordNode, "lookup_in_range", reference_in_range)
        monkeypatch.setattr(PastryNode, "local_lookup", _pastry_reference_lookup)
        monkeypatch.setattr(PastryNode, "lookup_in_range", reference_in_range)

    return install


def _kbr_paths(ring_class, seed):
    """Paths of 150 routes over a ring that loses nodes while routing."""
    rng = random.Random(seed)
    space = IdSpace(16)
    node_ids = sorted(rng.sample(range(space.size), 80))
    ring = ring_class.build(space, node_ids)
    router = KBRRouter(ring)
    paths = []
    for step in range(150):
        if step % 25 == 24:  # stale entries: the router forgets them as it goes
            ring.fail(rng.choice(ring.live_ids()))
        if step % 60 == 59:
            ring.stabilize()
        result = router.route(rng.choice(ring.live_ids()), rng.randrange(space.size))
        paths.append((result.path, result.destination))
    return paths


def _dring_paths(substrate, seed):
    rng = random.Random(seed)
    keys = KeyScheme(website_bits=10, locality_bits=3)
    ring = PastryRing(keys.idspace) if substrate == "pastry" else None
    dring = DRing(keys, ring=ring)
    websites = [f"site-{i:03d}.example.org" for i in range(20)]
    dring.ring.auto_stabilize = False
    for website in websites:
        for locality in range(6):
            dring.register_directory(website, locality, f"d({website},{locality})#0")
    dring.ring.auto_stabilize = True
    dring.ring.stabilize()
    paths = []
    for step in range(200):
        if step % 20 == 19:  # a failed directory: Algorithm 2 stays inside the website
            website, locality = rng.choice(websites), rng.randrange(6)
            if dring.placement_for(website, locality) is not None:
                dring.remove_directory(website, locality, failed=True)
        if step % 70 == 69:
            website, locality = rng.choice(websites), rng.randrange(6)
            dring.replace_directory(website, locality, f"d({website},{locality})#{step}")
        result = dring.route_query(
            rng.choice(websites), rng.randrange(6), start_node_id=rng.choice(dring.ring.live_ids())
        )
        paths.append((result.path, result.destination))
    return paths


@pytest.mark.parametrize("ring_class", [ChordRing, PastryRing])
def test_kbr_route_paths_equal_flat_scan(ring_class, flat_scan_lookups):
    bisected = _kbr_paths(ring_class, seed=11)
    flat_scan_lookups()
    assert _kbr_paths(ring_class, seed=11) == bisected
    assert any(len(path) > 2 for path, _ in bisected)


@pytest.mark.parametrize("substrate", ["chord", "pastry"])
def test_dring_route_paths_equal_flat_scan(substrate, flat_scan_lookups):
    bisected = _dring_paths(substrate, seed=5)
    flat_scan_lookups()
    assert _dring_paths(substrate, seed=5) == bisected
    assert any(len(path) > 2 for path, _ in bisected)
