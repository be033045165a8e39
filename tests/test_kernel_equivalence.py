"""The columnar protocol state against its reference models.

Flower-CDN peers keep their views, summaries and directory indexes in
columns (``repro.core.columns``, ``ContentPeer``, ``DirectoryPeer``); the
object-form structures they replaced are their reference models (``AgedView``
and ``BloomFilter`` in the tree, the per-entry probe, mask and column export in
``tests/reference/views.py``).
Two layers of evidence that the columns changed nothing but speed:

* **end to end** — every standard-tier scenario, run at the golden
  scale/seed, reproduces the committed golden digest *byte for byte*.  The
  goldens were produced by the per-object backend this one replaced, and
  ``test_scenarios_golden.py`` only compares within tolerances, so this is
  the tier-1 gate that keeps the fold (and any later kernel work that claims
  byte-identity) honest;
* **per structure** — property tests drive the columnar view, the packed
  Bloom summaries and the directory peer's stamp/holder tables through
  random operation sequences in lockstep with ``AgedView``, ``BloomFilter``
  and a naive per-entry directory model, and require equal observable state
  at every step.
"""

import random
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import SUMMARY_NUM_HASHES, ColumnarView
from repro.core.config import DEAD_AGE, FlowerConfig
from repro.core.content_peer import ContentPeer
from repro.core.directory_peer import DirectoryPeer
from repro.datastructures.aged_view import AgedEntry, AgedView
from repro.datastructures.bloom import BloomFilter
from repro.scenarios import golden
from repro.scenarios.library import scenario_names
from tests.reference.directory import lookup_index
from tests.reference.views import entries_maybe_containing, export_columns, mask_for

GOLDEN_DIR = Path(__file__).parent / "goldens"


# -- end to end: every standard scenario, byte-identical ----------------------


@pytest.mark.parametrize("name", sorted(scenario_names(tier="standard")))
def test_kernel_reproduces_committed_golden_exactly(name):
    committed = golden.load_golden(name, GOLDEN_DIR)
    fresh = golden.compute_golden_digest(name)
    assert fresh == committed, (
        f"the columnar backend diverged from the committed golden for {name!r}; "
        "it must stay digest-identical to the object backend that produced it"
    )


# -- property: columnar view vs aged view -------------------------------------

contacts = st.sampled_from([f"p{i}" for i in range(16)])
view_ops = st.lists(
    st.one_of(
        st.tuples(st.just("merge"), st.lists(st.tuples(contacts, st.integers(0, 12)), max_size=8)),
        st.tuples(st.just("put"), contacts),
        st.tuples(st.just("age"), st.none()),
        st.tuples(st.just("remove"), contacts),
    ),
    max_size=40,
)


def _payload(num_bits, seed):
    bloom = BloomFilter(num_bits, SUMMARY_NUM_HASHES)
    bloom.add(f"obj-{seed}")
    return bloom


def _view_state(view):
    return [(e.contact, e.age, None if e.payload is None else e.payload._bits)
            for e in view.entries()]


@settings(max_examples=60, deadline=None)
@given(view_ops, st.integers(1, 8), st.integers(0, 2**31))
def test_columnar_view_mirrors_aged_view(ops, capacity, seed):
    num_bits = 64
    aged = AgedView(capacity=capacity)
    cols = ColumnarView(capacity=capacity, num_bits=num_bits, num_hashes=SUMMARY_NUM_HASHES)
    for op, arg in ops:
        if op == "merge":
            entries = [
                AgedEntry(contact=c, age=a, payload=_payload(num_bits, a))
                for c, a in arg
            ]
            aged.merge(entries, self_contact="self")
            cols.merge_columns(
                [(c, a, _payload(num_bits, a)._bits) for c, a in arg],
                self_contact="self",
            )
        elif op == "put":
            bloom = _payload(num_bits, 99)
            aged.put(AgedEntry(contact=arg, age=0, payload=bloom))
            cols.put_fresh(arg, bloom._bits)
        elif op == "age":
            aged.increment_ages()
            cols.increment_ages()
        elif op == "remove":
            assert aged.remove(arg) == cols.remove(arg)
        assert _view_state(aged) == _view_state(cols)
        oldest = aged.select_oldest()
        assert (oldest.contact if oldest else None) == cols.select_oldest()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(contacts, st.integers(0, 12)), min_size=0, max_size=20),
    st.integers(1, 10),
    st.integers(0, 2**31),
)
def test_columnar_subset_sampling_is_draw_identical(pairs, size, seed):
    num_bits = 64
    aged = AgedView(capacity=30)
    for c, a in pairs:
        bloom = _payload(num_bits, a)
        aged.put(AgedEntry(contact=c, age=a, payload=bloom))
    cols = ColumnarView(capacity=30, num_bits=num_bits, num_hashes=SUMMARY_NUM_HASHES)
    cols.merge_columns(
        [(e.contact, e.age, None if e.payload is None else e.payload._bits)
         for e in aged.entries()]
    )
    rng_a = random.Random(seed)
    rng_b = random.Random(seed)
    subset_aged = aged.select_subset(size, rng=rng_a)
    subset_cols = cols.select_subset_columns(size, rng=rng_b)
    assert [(e.contact, e.age) for e in subset_aged] == [
        (c, a) for c, a, _ in subset_cols
    ]
    assert rng_a.getstate() == rng_b.getstate()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(contacts, st.integers(0, 12)), max_size=20),
       st.text(min_size=1, max_size=12))
def test_columnar_probe_matches_entries_maybe_containing(pairs, item):
    num_bits = 64
    aged = AgedView(capacity=30)
    cols = ColumnarView(capacity=30, num_bits=num_bits, num_hashes=SUMMARY_NUM_HASHES)
    for index, (c, a) in enumerate(pairs):
        bloom = BloomFilter(num_bits, SUMMARY_NUM_HASHES)
        bloom.add(f"obj-{index}")
        if index % 3 == 0:
            bloom.add(item)  # some summaries genuinely contain the probe item
        aged.put(AgedEntry(contact=c, age=a, payload=bloom))
    cols.merge_columns(
        [(e.contact, e.age, e.payload._bits) for e in aged.entries()]
    )
    expected = entries_maybe_containing(aged, item)
    expected.sort(key=attrgetter("age", "contact"))
    assert [e.contact for e in expected] == cols.probe(
        mask_for(num_bits, SUMMARY_NUM_HASHES, item)
    )


# -- property: the union-rejected probe vs the reference scan ------------------

ITEMS = [f"obj-{i}" for i in range(8)]
item_sets = st.frozensets(st.integers(0, len(ITEMS) - 1), max_size=4)
probe_view_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("merge"),
            st.lists(
                st.tuples(contacts, st.integers(0, 12), st.none() | item_sets), max_size=8
            ),
        ),
        # put_fresh replaces a snapshot outright, also by one with *fewer*
        # bits (a cache-bounded peer that evicted objects): the union may keep
        # the old bits but must never lose a current one.
        st.tuples(st.just("put"), st.tuples(contacts, st.none() | item_sets)),
        st.tuples(st.just("seed"), st.lists(
            st.tuples(contacts, st.integers(0, 12), st.none() | item_sets), max_size=8
        )),
        st.tuples(st.just("age"), st.none()),
        st.tuples(st.just("remove"), contacts),
        st.tuples(st.just("clear"), st.none()),
        st.tuples(st.just("probe"), st.none()),
    ),
    max_size=40,
)


def _summary(num_bits, items):
    """(BloomFilter, packed bits) of ``items``; (None, None) for an absent summary."""
    if items is None:
        return None, None
    bloom = BloomFilter.from_items(
        [ITEMS[i] for i in sorted(items)], num_bits=num_bits, num_hashes=SUMMARY_NUM_HASHES
    )
    return bloom, bloom._bits


def _assert_probes_match(aged, cols, num_bits):
    for item in ITEMS + ["never-stored"]:
        expected = entries_maybe_containing(aged, item)
        expected.sort(key=attrgetter("age", "contact"))
        assert cols.probe(mask_for(num_bits, SUMMARY_NUM_HASHES, item)) == [
            e.contact for e in expected
        ]


def _assert_union_is_superset(cols):
    if cols._union is None:
        return
    exact = 0
    for _, _, bits in export_columns(cols):
        if bits is not None:
            exact |= bits
    assert cols._union & exact == exact


@settings(max_examples=120, deadline=None)
@given(probe_view_ops, st.integers(1, 6))
def test_union_rejected_probe_matches_reference_scan(ops, capacity):
    num_bits = 64
    aged = AgedView(capacity=capacity)
    cols = ColumnarView(capacity=capacity, num_bits=num_bits, num_hashes=SUMMARY_NUM_HASHES)
    for op, arg in ops:
        if op == "merge":
            summaries = [(c, a, *_summary(num_bits, items)) for c, a, items in arg]
            aged.merge(
                [AgedEntry(contact=c, age=a, payload=bloom) for c, a, bloom, _ in summaries],
                self_contact="self",
            )
            cols.merge_columns([(c, a, bits) for c, a, _, bits in summaries], self_contact="self")
        elif op == "put":
            bloom, bits = _summary(num_bits, arg[1])
            aged.put(AgedEntry(contact=arg[0], age=0, payload=bloom))
            cols.put_fresh(arg[0], bits)
        elif op == "seed":
            # Seeding from another peer's view == merging its exported columns
            # plus its owner's fresh entry, cut to the capacity.
            source = ColumnarView(capacity=None, num_bits=num_bits, num_hashes=SUMMARY_NUM_HASHES)
            source.increment_ages(3)
            source.merge_columns([(c, a, _summary(num_bits, items)[1]) for c, a, items in arg])
            if len(arg) % 2:
                source.remove(arg[0][0])  # a source whose own union is unknown
            owner_bloom, owner_bits = _summary(num_bits, frozenset({0, 1}))
            columns = (export_columns(source) + [("owner", 0, owner_bits)])[:capacity]
            aged.merge(
                [
                    AgedEntry(contact=c, age=a, payload=(
                        None if bits is None
                        else BloomFilter.from_bits(bits, num_bits, SUMMARY_NUM_HASHES)
                    ))
                    for c, a, bits in columns
                ],
                self_contact="self",
            )
            cols.seed_from(source, ("owner", 0, owner_bits), self_contact="self")
        elif op == "age":
            aged.increment_ages()
            cols.increment_ages()
        elif op == "remove":
            assert aged.remove(arg) == cols.remove(arg)
        elif op == "clear":
            aged.clear()
            cols.clear()
        else:
            _assert_probes_match(aged, cols, num_bits)
        assert _view_state(aged) == _view_state(cols)
        _assert_union_is_superset(cols)
    _assert_probes_match(aged, cols, num_bits)
    _assert_union_is_superset(cols)


def test_union_is_dropped_when_a_row_leaves_and_rebuilt_by_a_probe_that_scans_in_vain():
    num_bits = 64
    cols = ColumnarView(capacity=2, num_bits=num_bits, num_hashes=SUMMARY_NUM_HASHES)
    held = mask_for(num_bits, SUMMARY_NUM_HASHES, "held")
    gone = mask_for(num_bits, SUMMARY_NUM_HASHES, "gone")
    cols.merge_columns([("a", 5, gone), ("b", 1, held)])
    assert cols._union == held | gone
    cols.merge_columns([("c", 0, held)])  # capacity trim evicts the oldest row: "a"
    assert cols._union is None and "a" not in cols
    # A probe that hits needed no union and leaves none to maintain ...
    assert cols.probe(held) == ["c", "b"] and cols._union is None
    cols.put_fresh("d", gone | held)
    assert cols._union is None and "b" not in cols
    # ... one that scanned in vain rebuilds it, tight again.
    cols.remove("d")
    assert cols.probe(gone) == [] and cols._union == held
    cols.put_fresh("c", None)  # a replaced snapshot's bits may stay
    assert cols._union == held
    assert cols.probe(held) == [] and cols._union == held  # covered, scanned, kept
    cols.remove("c")  # an address-only row takes no bit with it
    assert cols._union == held
    cols.put_fresh("e", held)
    cols.remove("e")
    assert cols._union is None
    assert cols.probe(held) == [] and cols._union == 0


# -- property: packed summaries vs Bloom filters ------------------------------


def _content_config():
    return FlowerConfig()


object_lists = st.lists(st.integers(0, 40), min_size=0, max_size=60)


@settings(max_examples=40, deadline=None)
@given(object_lists, st.one_of(st.none(), st.integers(1, 8)))
def test_packed_summary_tracks_bloom_filter(stored, capacity):
    """Bounded caches evict, which no Bloom mask can express: the packed
    summary must still equal a filter rebuilt over what the peer holds."""
    config = FlowerConfig(content_cache_capacity=capacity)
    peer = ContentPeer(peer_id="c(k)@1", host_id=1, website="w", locality=0, config=config)
    for rank in stored:
        peer.store_object(f"http://site-000.example.org/object/{rank}")
        rebuilt = BloomFilter.from_items(peer.objects, num_bits=config.summary_bits)
        assert peer.summary_bits() == rebuilt._bits


@settings(max_examples=30, deadline=None)
@given(object_lists)
def test_packed_summary_incremental_add_is_bit_identical(stored):
    config = _content_config()
    peer = ContentPeer(peer_id="c(k)@1", host_id=1, website="w", locality=0, config=config)
    for rank in stored:
        peer.store_object(f"http://site-000.example.org/object/{rank}")
        # the incrementally maintained mask must equal a fresh rebuild at
        # every step, not just at the end
        fresh = 0
        for object_id in peer.objects:
            fresh |= mask_for(config.summary_bits, SUMMARY_NUM_HASHES, object_id)
        assert peer.summary_bits() == fresh


# -- property: directory peer vs a naive per-entry model -----------------------

peer_ids = st.sampled_from([f"c{i}" for i in range(12)])
dir_ops = st.lists(
    st.one_of(
        st.tuples(st.just("register"), peer_ids, st.integers(0, 20)),
        st.tuples(
            st.just("push"),
            peer_ids,
            st.tuples(
                st.lists(st.integers(0, 20), max_size=5),
                st.lists(st.integers(0, 20), max_size=3),
            ),
        ),
        st.tuples(st.just("keepalive"), peer_ids, st.none()),
        st.tuples(st.just("age"), st.none(), st.none()),
        st.tuples(st.just("evict"), st.none(), st.none()),
        st.tuples(st.just("remove"), peer_ids, st.none()),
    ),
    max_size=50,
)


def _url(rank):
    return f"http://site-000.example.org/object/{rank}"


class NaiveDirectory:
    """The directory index as the paper states it: one [age, objects] per peer,
    aged entry by entry and searched by scanning (what ``DirectoryPeer`` did
    before its stamp column and inverted holder table)."""

    def __init__(self, config):
        self.capacity = config.max_content_overlay_size
        self.dead_age = DEAD_AGE
        self.index = {}

    def touch(self, peer_id, added=(), removed=(), create=True):
        if peer_id not in self.index:
            if not create or len(self.index) >= self.capacity:
                return False
            self.index[peer_id] = [0, set()]
        entry = self.index[peer_id]
        entry[0] = 0
        entry[1].update(added)
        entry[1].difference_update(removed)
        return True

    def age(self):
        for entry in self.index.values():
            entry[0] += 1

    def evict(self):
        dead = [p for p, (age, _) in self.index.items() if age > self.dead_age]
        for peer_id in dead:
            del self.index[peer_id]
        return dead

    def lookup(self, object_id):
        return [
            p for _, p in sorted((age, p) for p, (age, objs) in self.index.items() if object_id in objs)
        ]

    def state(self):
        return {p: (age, sorted(objs)) for p, (age, objs) in self.index.items()}


def _dir_state(directory):
    return {
        peer_id: (entry.age, sorted(entry.objects))
        for peer_id, entry in directory.export_state().items()
    }


@settings(max_examples=60, deadline=None)
@given(dir_ops)
def test_kernel_directory_mirrors_object_directory(ops):
    config = FlowerConfig()
    model = NaiveDirectory(config)
    directory = DirectoryPeer(
        peer_id="d(k)", host_id=1, website="w", locality=0, node_id=0, config=config
    )
    for op, who, what in ops:
        if op == "register":
            assert directory.register_client(who, _url(what)) == model.touch(who, [_url(what)])
        elif op == "push":
            added = tuple(_url(r) for r in what[0])
            removed = tuple(_url(r) for r in what[1] if r not in what[0])
            directory.apply_delta(who, added, removed)
            model.touch(who, added, removed)
        elif op == "keepalive":
            directory.handle_keepalive(who)
            model.touch(who, create=False)
        elif op == "age":
            directory.increment_ages()
            model.age()
        elif op == "evict":
            assert directory.evict_dead_entries() == model.evict()
        elif op == "remove":
            assert directory.remove_client(who) == (model.index.pop(who, None) is not None)
        assert _dir_state(directory) == model.state()
        indexed = set().union(*(objs for _, objs in model.index.values()))
        assert directory.indexed_objects() == indexed
        for rank in range(5):
            assert lookup_index(directory, _url(rank)) == model.lookup(_url(rank))
        # The stamp column is in index order, which view seeding reads it in.
        assert list(directory._stamps) == list(directory.members())
        assert directory.member_columns(4, exclude="c0") == [
            (p, directory.entry(p).age, None) for p in directory.members() if p != "c0"
        ][:4]
        assert directory.build_summary() == BloomFilter.from_items(
            indexed, num_bits=config.summary_bits
        )


def test_kernel_directory_state_transfer_round_trip():
    config = FlowerConfig()
    kwargs = dict(host_id=1, website="w", locality=0, node_id=0, config=config)
    source = DirectoryPeer(peer_id="d(a)", **kwargs)
    source.register_client("c1", _url(1))
    source.increment_ages()
    source.register_client("c2", _url(2))
    source.increment_ages()
    target = DirectoryPeer(peer_id="d(b)", **kwargs)
    target.import_state(source.export_state())
    assert _dir_state(target) == _dir_state(source)
    target.increment_ages()
    assert target.entry("c1").age == 3
    assert target.entry("c2").age == 2
    assert lookup_index(target, _url(1)) == ["c1"]
