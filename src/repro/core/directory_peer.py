"""Directory peers: directory index, directory summaries and Algorithm 3.

A directory peer ``d(ws, loc)`` has a *complete view* of its content overlay,
the directory index: one entry per content peer carrying its address, an age
(for failure detection) and the list of object identifiers it holds.  It also
keeps Bloom-filter *directory summaries* of the indexes of the neighbouring
directory peers of the same website and answers queries with Algorithm 3:
index lookup → summary lookup → origin server.

Two tables keep the per-period and per-query work off the index itself:
entry ages live in a stamp column under one epoch clock, so ageing the whole
index is a single increment, and Algorithm 3 (:meth:`DirectoryPeer.redirect`)
resolves through an object → holders inverted table instead of scanning every
entry's object set.  ``tests/reference/directory.py`` holds the plain sorted
forms of its two lookups, the oracle it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Container, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.columns import ViewColumn
from repro.core.config import DEAD_AGE, FlowerConfig
from repro.datastructures.bloom import BloomFilter
from repro.workload.catalog import ObjectId


@dataclass(slots=True)
class DirectoryEntry:
    """One directory-index entry: a content peer, its age and its object list.

    Inside a :class:`DirectoryPeer` the authoritative age is the peer's stamp
    column; ``age`` is brought up to date whenever an entry is handed out
    (:meth:`DirectoryPeer.entry`, :meth:`DirectoryPeer.export_state`).
    """

    peer_id: str
    age: int = 0
    objects: Set[ObjectId] = field(default_factory=set)


@dataclass(slots=True)
class DirectoryPeer:
    """State and behaviour of a directory peer ``d(ws, loc)``."""

    peer_id: str
    host_id: int
    website: str
    locality: int
    node_id: int
    config: FlowerConfig

    _index: Dict[str, DirectoryEntry] = field(default_factory=dict, init=False, repr=False)
    #: peer id -> value of ``_clock`` when the peer was last heard from
    _stamps: Dict[str, int] = field(default_factory=dict, init=False, repr=False)
    #: object id -> ids of the index entries listing it
    _holders: Dict[ObjectId, Set[str]] = field(default_factory=dict, init=False, repr=False)
    _clock: int = field(default=0, init=False, repr=False)
    _summaries: Dict[str, BloomFilter] = field(default_factory=dict, init=False, repr=False)
    #: per-object query counts, used by the active-replication extension to
    #: decide which objects are popular enough to push to other overlays
    _request_counts: Dict[ObjectId, int] = field(default_factory=dict, init=False, repr=False)
    #: objects added to the index since the last summary refresh we sent out
    _unpublished_objects: Set[ObjectId] = field(default_factory=set, init=False, repr=False)
    _published_object_count: int = field(default=0, init=False, repr=False)
    alive: bool = field(default=True, init=False)
    #: statistics
    queries_processed: int = field(default=0, init=False)
    pushes_received: int = field(default=0, init=False)
    summaries_sent: int = field(default=0, init=False)

    # -- directory index -------------------------------------------------------

    @property
    def index_size(self) -> int:
        return len(self._index)

    @property
    def is_full(self) -> bool:
        """True once the content overlay reached its maximum size ``Sco``."""
        return len(self._index) >= self.config.max_content_overlay_size

    def members(self) -> Sequence[str]:
        return tuple(self._index)

    def entry(self, peer_id: str) -> Optional[DirectoryEntry]:
        entry = self._index.get(peer_id)
        return None if entry is None else self._synced_entry(entry)

    def member_columns(self, limit: int, exclude: Optional[str] = None) -> List[ViewColumn]:
        """The first ``limit`` members other than ``exclude`` as address-only view
        columns ``(peer, age, None)``, in index order (the stamp column's own
        order: entries enter and leave both tables together) — what a joining
        peer seeds its view from when no content peer served it (Section 4.2)."""
        clock = self._clock
        others = (item for item in self._stamps.items() if item[0] != exclude)
        return [(peer_id, clock - stamp, None) for peer_id, stamp in islice(others, limit)]

    def _synced_entry(self, entry: DirectoryEntry) -> DirectoryEntry:
        entry.age = self._clock - self._stamps[entry.peer_id]
        return entry

    def indexed_objects(self) -> Set[ObjectId]:
        """Union of all object identifiers listed in the directory index."""
        return set(self._holders)

    def register_client(self, peer_id: str, object_id: Optional[ObjectId] = None) -> bool:
        """Optimistically add a new content peer after serving its query (Section 3.4).

        Returns ``False`` when the overlay is full and the peer was not added.
        """
        entry = self._index.get(peer_id)
        if entry is None:
            if self.is_full:
                return False
            entry = DirectoryEntry(peer_id=peer_id)
            self._index[peer_id] = entry
        if object_id is not None:
            self._record_objects(entry, [object_id])
        self._stamps[peer_id] = self._clock
        return True

    def _record_objects(self, entry: DirectoryEntry, objects: Sequence[ObjectId]) -> None:
        holders = self._holders
        for object_id in objects:
            if object_id not in entry.objects:
                entry.objects.add(object_id)
                self._unpublished_objects.add(object_id)
                holder_set = holders.get(object_id)
                if holder_set is None:
                    holders[object_id] = {entry.peer_id}
                else:
                    holder_set.add(entry.peer_id)

    def _unindex_object(self, peer_id: str, object_id: ObjectId) -> None:
        holder_set = self._holders.get(object_id)
        if holder_set is not None:
            holder_set.discard(peer_id)
            if not holder_set:
                del self._holders[object_id]

    def remove_client(self, peer_id: str) -> bool:
        """Drop a content peer (failed, departed or changed locality)."""
        entry = self._index.pop(peer_id, None)
        if entry is None:
            return False
        self._stamps.pop(peer_id, None)
        for object_id in entry.objects:
            self._unindex_object(peer_id, object_id)
        return True

    # -- Algorithm 6: directory behaviour ----------------------------------------

    def apply_delta(
        self, sender: str, added: Sequence[ObjectId], removed: Sequence[ObjectId]
    ) -> None:
        """Update the index entry of the pushing content peer from its delta list."""
        entry = self._index.get(sender)
        if entry is None:
            if self.is_full:
                return
            entry = DirectoryEntry(peer_id=sender)
            self._index[sender] = entry
        self._record_objects(entry, added)
        for object_id in removed:
            if object_id in entry.objects:
                entry.objects.discard(object_id)
                self._unindex_object(sender, object_id)
        self._stamps[sender] = self._clock
        self.pushes_received += 1

    def handle_keepalive(self, peer_id: str) -> None:
        if peer_id in self._stamps:
            self._stamps[peer_id] = self._clock

    def increment_ages(self) -> None:
        """Age every entry: one clock tick instead of a per-entry pass."""
        self._clock += 1

    def evict_dead_entries(self) -> List[str]:
        """Remove entries whose age exceeded ``Tdead`` (Section 5.1)."""
        clock = self._clock
        dead = [peer_id for peer_id, stamp in self._stamps.items() if clock - stamp > DEAD_AGE]
        for peer_id in dead:
            self.remove_client(peer_id)
        return dead

    # -- directory summaries ----------------------------------------------------------

    def build_summary(self) -> BloomFilter:
        """A Bloom filter over every object identifier in the directory index."""
        return BloomFilter.from_items(self._holders, num_bits=self.config.summary_bits)

    def should_refresh_summary(self) -> bool:
        """Delayed propagation rule: refresh when enough *new* objects accumulated."""
        if not self._unpublished_objects:
            return False
        base = max(1, self._published_object_count)
        return len(self._unpublished_objects) / base >= self.config.gossip.push_threshold

    def publish_summary(self) -> BloomFilter:
        """Build a fresh summary and mark the current index content as published."""
        summary = self.build_summary()
        self._published_object_count = len(self._holders)
        self._unpublished_objects.clear()
        self.summaries_sent += 1
        return summary

    def store_neighbor_summary(self, neighbor_peer_id: str, summary: BloomFilter) -> None:
        self._summaries[neighbor_peer_id] = summary

    def drop_neighbor(self, neighbor_peer_id: str) -> None:
        self._summaries.pop(neighbor_peer_id, None)

    # -- Algorithm 3: query processing -----------------------------------------------

    def redirect(
        self, object_id: ObjectId, excluded: Container[str] = ()
    ) -> Tuple[str, Optional[str]]:
        """Algorithm 3: where to redirect a query for ``object_id``.

        Returns ``(kind, target)`` — ``"content_peer"`` with the youngest
        index entry listing the object, else ``"directory_peer"`` with the
        first neighbour whose summary may contain it, else ``("server",
        None)``.  ``excluded`` holds targets already tried (redirection
        failures or the directory peers the query already visited) so retries
        make progress.  The first admissible element of the youngest-first
        holder list and of the sorted matching-neighbour list (the
        ``lookup_index`` / ``lookup_summaries`` oracles in ``tests/reference/``),
        found in one walk without sorting either.
        """
        self.queries_processed += 1
        self._request_counts[object_id] = self._request_counts.get(object_id, 0) + 1
        holder_set = self._holders.get(object_id)
        if holder_set:
            stamps = self._stamps
            best = None
            best_stamp = 0
            for holder in holder_set:
                if holder in excluded:
                    continue
                stamp = stamps[holder]
                if (
                    best is None
                    or stamp > best_stamp
                    or (stamp == best_stamp and holder < best)
                ):
                    best, best_stamp = holder, stamp
            if best is not None:
                return "content_peer", best
        neighbor = min(
            (
                neighbor
                for neighbor, summary in self._summaries.items()
                if neighbor not in excluded and object_id in summary
            ),
            default=None,
        )
        if neighbor is not None:
            return "directory_peer", neighbor
        return "server", None

    # -- popularity (active-replication extension) ---------------------------------------

    def request_count(self, object_id: ObjectId) -> int:
        return self._request_counts.get(object_id, 0)

    def popular_objects(self, top_k: int) -> List[ObjectId]:
        """The ``top_k`` most requested objects this directory has seen."""
        if top_k <= 0:
            return []
        ranked = sorted(self._request_counts.items(), key=lambda item: (-item[1], item[0]))
        return [object_id for object_id, _ in ranked[:top_k]]

    # -- failure ---------------------------------------------------------------------

    def fail(self) -> None:
        self.alive = False

    def export_state(self) -> Dict[str, DirectoryEntry]:
        """Hand over the directory index (voluntary-leave replacement, Section 5.2)."""
        return {
            peer_id: self._synced_entry(entry) for peer_id, entry in self._index.items()
        }

    def import_state(self, index: Dict[str, DirectoryEntry]) -> None:
        self._index = dict(index)
        clock = self._clock
        self._stamps = {peer_id: clock - entry.age for peer_id, entry in index.items()}
        holders: Dict[ObjectId, Set[str]] = {}
        for peer_id, entry in index.items():
            for object_id in entry.objects:
                holders.setdefault(object_id, set()).add(peer_id)
        self._holders = holders
        self._unpublished_objects.update(holders)
