"""Content peers and the gossip protocol of the content overlays.

A content peer ``c(ws, loc)`` stores objects of website ``ws`` it has
requested, summarises them with a Bloom filter and maintains a bounded
partial *view* of its content overlay whose entries carry the partner's
content summary and an age (Section 4.2).  This module implements:

* the peer's local state (content list, view, directory-peer entry);
* Algorithm 4 — the active and passive gossip behaviour;
* Algorithm 5 — the push behaviour towards the directory peer;
* local query resolution over the view summaries (Section 4.1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.core.columns import SUMMARY_NUM_HASHES, ColumnarView, ViewColumn
from repro.core.config import FlowerConfig
from repro.datastructures.bloom import MaskTable, mask_table
from repro.datastructures.lru import LRUCache
from repro.workload.catalog import ObjectId


class GossipMessage(NamedTuple):
    """One gossip message: the sender's packed summary plus view columns.

    A NamedTuple rather than a frozen dataclass: one is built per exchange,
    and ``tuple.__new__`` is much cheaper than the ``object.__setattr__``
    dance frozen dataclasses generate.
    """

    sender: str
    summary_bits: int
    view_subset: Tuple[ViewColumn, ...]


@dataclass(slots=True)
class ContentPeer:
    """State and behaviour of one content peer ``c(ws, loc)``."""

    peer_id: str
    host_id: int
    website: str
    locality: int
    config: FlowerConfig
    directory_peer_id: Optional[str] = None

    # internal state -----------------------------------------------------------
    _objects: Set[ObjectId] = field(default_factory=set, init=False, repr=False)
    _cache: Optional[LRUCache] = field(default=None, init=False, repr=False)
    _view: ColumnarView = field(init=False, repr=False)
    _pending_added: Set[ObjectId] = field(default_factory=set, init=False, repr=False)
    _pending_removed: Set[ObjectId] = field(default_factory=set, init=False, repr=False)
    #: packed Bloom summary of ``_objects``; ``None`` after a removal, which
    #: a Bloom mask cannot express, forces a lazy rebuild.  Python ints are
    #: immutable, so a summary handed to a partner is a snapshot for free.
    _packed_summary: Optional[int] = field(default=None, init=False, repr=False)
    #: object id -> Bloom mask for this deployment's summary geometry, bound
    #: once: the query path reads a mask per probe and per stored object
    _masks: MaskTable = field(init=False, repr=False)
    alive: bool = field(default=True, init=False)
    #: statistics used by tests and experiment diagnostics
    gossip_initiated: int = field(default=0, init=False)
    gossip_received: int = field(default=0, init=False)
    pushes_sent: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        num_bits = self.config.summary_bits
        self._view = ColumnarView(
            capacity=self.config.gossip.view_size,
            num_bits=num_bits,
            num_hashes=SUMMARY_NUM_HASHES,
        )
        self._masks = mask_table(num_bits, SUMMARY_NUM_HASHES)
        if self.config.content_cache_capacity is not None:
            self._cache = LRUCache(self.config.content_cache_capacity)

    # -- content management -------------------------------------------------

    @property
    def objects(self) -> Set[ObjectId]:
        return set(self._objects)

    @property
    def num_objects(self) -> int:
        return len(self._objects)

    def has_object(self, object_id: ObjectId) -> bool:
        return object_id in self._objects

    def store_object(self, object_id: ObjectId) -> None:
        """Keep a copy of a served object; records the change for the next push."""
        if object_id in self._objects:
            return
        if self._cache is not None:
            evicted = self._cache.put(object_id, True)
            if evicted is not None:
                evicted_id = evicted[0]
                self._objects.discard(evicted_id)
                self._record_removed(evicted_id)
        self._objects.add(object_id)
        # Bloom filters are add-only, so the packed summary absorbs a new
        # object as one OR of its mask instead of a rebuild (bit-identical:
        # OR is commutative and each object is recorded exactly once).
        if self._packed_summary is not None:
            self._packed_summary |= self._masks[object_id]
        self._pending_removed.discard(object_id)
        self._pending_added.add(object_id)

    def _record_removed(self, object_id: ObjectId) -> None:
        self._packed_summary = None  # a Bloom mask cannot express a removal
        self._pending_added.discard(object_id)
        self._pending_removed.add(object_id)

    def summary_bits(self) -> int:
        """The content summary as the packed integer a ``BloomFilter`` would hold."""
        bits = self._packed_summary
        if bits is None:
            masks = self._masks
            bits = 0
            for object_id in self._objects:
                bits |= masks[object_id]
            self._packed_summary = bits
        return bits

    # -- view management ------------------------------------------------------

    @property
    def view(self) -> ColumnarView:
        return self._view

    def initialize_view(self, columns: Iterable[ViewColumn]) -> None:
        """Seed the view from the serving peer's view or the directory index.

        Per Section 4.2, the view of a joining peer is a subset of either the
        serving content peer's view (with summaries) or the directory index
        (addresses only — summaries fill in through later gossip).
        """
        self._view.merge_columns(columns, self_contact=self.peer_id)

    def seed_view_from(self, provider: "ContentPeer") -> None:
        """Seed the view from the peer that served the first query: its view
        plus its own fresh entry (:meth:`initialize_view` of those columns)."""
        self._view.seed_from(
            provider._view, (provider.peer_id, 0, provider.summary_bits()), self.peer_id
        )

    def note_directory(self, directory_peer_id: str) -> None:
        """Track the current directory peer of the overlay (special view entry)."""
        self.directory_peer_id = directory_peer_id

    def increment_ages(self) -> None:
        """The periodic (per ``Tgossip``) ageing of every view entry."""
        self._view.increment_ages()

    # -- local query resolution (Section 4.1) ------------------------------------

    def resolve_locally(self, object_id: ObjectId) -> List[str]:
        """Contacts whose gossiped summaries may hold ``object_id``, best first.

        The peer's own storage is checked by the caller; this method only
        consults the view.  Candidates are ordered youngest entry first since
        fresher summaries are less likely to be stale.
        """
        return self._view.probe(self._masks[object_id])

    # -- Algorithm 4: gossip behaviour ----------------------------------------------

    def select_gossip_partner(self) -> Optional[str]:
        """The oldest contact in the view (active behaviour's partner choice)."""
        return self._view.select_oldest()

    def build_gossip_message(self, rng: Optional[random.Random] = None) -> GossipMessage:
        """Build the message sent in an exchange: own summary + ``Lgossip`` entries."""
        subset = self._view.select_subset_columns(self.config.gossip.gossip_length, rng=rng)
        return GossipMessage(self.peer_id, self.summary_bits(), tuple(subset))

    def apply_gossip(self, message: GossipMessage) -> None:
        """Merge a partner's message into the view (both active and passive paths).

        The partner's own entry is written unconditionally (age 0, current
        summary) as in Algorithm 4's ``viewEntry`` step; the forwarded view
        subset goes through the duplicate-resolving merge.
        """
        self._view.merge_columns(message.view_subset, self_contact=self.peer_id)
        if message.sender != self.peer_id:
            self._view.put_fresh(message.sender, message.summary_bits)

    def handle_gossip(
        self, message: GossipMessage, rng: Optional[random.Random] = None
    ) -> GossipMessage:
        """Passive behaviour: receive a gossip message and answer with our own."""
        reply = self.build_gossip_message(rng=rng)
        self.apply_gossip(message)
        self.gossip_received += 1
        return reply

    # -- Algorithm 5: push behaviour ---------------------------------------------------

    def take_delta(self) -> Tuple[Sequence[ObjectId], Sequence[ObjectId]]:
        """Extract the delta list ``(added, removed)`` and reset the change
        counter (Algorithm 5).  Each side is in sorted order — which a side of
        one change, the common case, is without sorting."""
        added, removed = self._pending_added, self._pending_removed
        delta = (
            sorted(added) if len(added) > 1 else tuple(added),
            sorted(removed) if len(removed) > 1 else tuple(removed),
        )
        added.clear()
        removed.clear()
        self.pushes_sent += 1
        return delta

    # -- failure handling ------------------------------------------------------------

    def forget_contact(self, peer_id: str) -> None:
        """Drop a contact detected as dead (or having changed locality)."""
        self._view.remove(peer_id)
        if self.directory_peer_id == peer_id:
            self.directory_peer_id = None

    def fail(self) -> None:
        self.alive = False
