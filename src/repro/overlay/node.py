"""A Chord node: finger table, successor list and local lookups.

Each node knows a bounded set of other nodes (its *routing state*): finger
table entries, a successor list and its predecessor.  The two primitives the
paper's routing algorithms need are implemented here:

* ``local_lookup(key)`` — Algorithm 1's per-hop step: among the nodes this
  node knows of (including itself), the one numerically closest to the key;
* ``lookup_in_range(key, low, high)`` — Algorithm 2's extra step: the same,
  restricted to known nodes ``low <= id < high``.  D-ring's constraint is
  "same website ID as the key", and its engineered identifiers make that one
  contiguous identifier range.

Routing state is bidirectional: alongside the classic clockwise finger table
each node keeps *backward fingers* (the first live node counter-clockwise
from ``id - 2^i``), so greedy numerically-closest routing halves the distance
to a counter-clockwise key just as it does clockwise, and lookups are
O(log n) in both directions instead of degrading to a predecessor walk.

Both lookups run on every hop of every route, so they bisect a cached sorted
*routing table* (the distinct known ids) instead of rebuilding and scanning
the known set.  :meth:`ChordNode.remember`, :meth:`ChordNode.forget` and
:func:`rebuild_routing_state` drop the cache; code that writes the slots
directly must call :meth:`ChordNode.invalidate_routing_table` afterwards.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Set

from repro.overlay.idspace import IdSpace


class ChordNode:
    """Routing state of one DHT participant."""

    __slots__ = (
        "node_id",
        "idspace",
        "peer_name",
        "fingers",
        "back_fingers",
        "successors",
        "predecessor",
        "alive",
        "_table",
    )

    def __init__(self, node_id: int, idspace: IdSpace, peer_name: str = "") -> None:
        idspace.validate(node_id)
        self.node_id = node_id
        self.idspace = idspace
        #: Application-level peer name mapped onto this DHT node (used by the
        #: latency model and the Flower-CDN layer); defaults to the node id.
        self.peer_name = peer_name or f"node-{node_id}"
        self.fingers: List[Optional[int]] = [None] * idspace.bits
        self.back_fingers: List[Optional[int]] = [None] * idspace.bits
        self.successors: List[int] = []
        self.predecessor: Optional[int] = None
        self.alive = True
        #: sorted distinct known ids, built on the first lookup after a change
        self._table: Optional[List[int]] = None

    # -- identity ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"ChordNode(id={self.node_id}, peer={self.peer_name!r}, alive={self.alive})"

    # -- routing state -----------------------------------------------------

    def finger_start(self, index: int) -> int:
        """The identifier the ``index``-th finger should point at: ``id + 2^index``."""
        return self.idspace.normalize(self.node_id + (1 << index))

    def back_finger_start(self, index: int) -> int:
        """The identifier the ``index``-th backward finger points at: ``id - 2^index``."""
        return self.idspace.normalize(self.node_id - (1 << index))

    def known_nodes(self) -> Set[int]:
        """Every node id present in this node's routing state (plus itself)."""
        known: Set[int] = {self.node_id}
        known.update(f for f in self.fingers if f is not None)
        known.update(f for f in self.back_fingers if f is not None)
        known.update(self.successors)
        if self.predecessor is not None:
            known.add(self.predecessor)
        return known

    def routing_table(self) -> List[int]:
        """:meth:`known_nodes` in ascending order, cached until the state changes."""
        table = self._table
        if table is None:
            table = self._table = sorted(self.known_nodes())
        return table

    def invalidate_routing_table(self) -> None:
        self._table = None

    def forget(self, node_id: int) -> None:
        """Drop a failed node from every routing-state slot."""
        self._table = None
        self.fingers = [None if f == node_id else f for f in self.fingers]
        self.back_fingers = [None if f == node_id else f for f in self.back_fingers]
        self.successors = [s for s in self.successors if s != node_id]
        if self.predecessor == node_id:
            self.predecessor = None

    def remember(self, node_id: int) -> None:
        """Opportunistically place ``node_id`` into any finger slot it improves."""
        if node_id == self.node_id:
            return
        self._table = None
        for index in range(self.idspace.bits):
            start = self.finger_start(index)
            current = self.fingers[index]
            if current is None:
                self.fingers[index] = node_id
            # Prefer the node closest after the finger start (classic Chord).
            elif self.idspace.clockwise_distance(start, node_id) < self.idspace.clockwise_distance(
                start, current
            ):
                self.fingers[index] = node_id
            back_start = self.back_finger_start(index)
            back_current = self.back_fingers[index]
            if back_current is None:
                self.back_fingers[index] = node_id
            # Mirror image: prefer the node closest *before* the backward start.
            elif self.idspace.clockwise_distance(node_id, back_start) < self.idspace.clockwise_distance(
                back_current, back_start
            ):
                self.back_fingers[index] = node_id

    # -- lookups (Algorithms 1 and 2 primitives) ------------------------------

    def local_lookup(self, key: int) -> int:
        """The known node (or self) numerically closest to ``key``."""
        return self.idspace.closest_in_sorted(key, self.routing_table())

    def lookup_in_range(self, key: int, low: int, high: int) -> Optional[int]:
        """Closest known node with ``low <= id < high``, or ``None`` if there is
        none: the ids in range are one slice of the sorted table, found by
        bisection."""
        table = self.routing_table()
        start = bisect_left(table, low)
        stop = bisect_left(table, high, start)
        if start == stop:
            return None
        return self.idspace.closest_in_sorted(key, table[start:stop])


def rebuild_routing_state(
    nodes: Dict[int, ChordNode], successor_list_size: int = 4
) -> None:
    """Recompute fingers, successor lists and predecessors for a set of live nodes.

    This is the simulation stand-in for Chord's periodic stabilisation: after
    joins and leaves the experiment harness calls it to restore a consistent
    ring, exactly as the paper assumes "the stabilization procedures that are
    normally used in structured overlays" do.
    """
    live_ids = sorted(node_id for node_id, node in nodes.items() if node.alive)
    if not live_ids:
        return
    idspace = nodes[live_ids[0]].idspace
    ring_size = len(live_ids)

    def successor_of(identifier: int) -> int:
        """First live node clockwise from ``identifier`` (inclusive), else wrap."""
        return live_ids[bisect_left(live_ids, identifier) % ring_size]

    def predecessor_of(identifier: int) -> int:
        """First live node counter-clockwise from ``identifier`` (inclusive), else wrap."""
        return live_ids[bisect_right(live_ids, identifier) - 1]

    for position, node_id in enumerate(live_ids):
        node = nodes[node_id]
        node.fingers = [
            successor_of(node.finger_start(index)) for index in range(idspace.bits)
        ]
        node.back_fingers = [
            predecessor_of(node.back_finger_start(index)) for index in range(idspace.bits)
        ]
        node.successors = [
            live_ids[(position + offset) % ring_size]
            for offset in range(1, min(successor_list_size, ring_size) + 1)
        ]
        node.predecessor = live_ids[(position - 1) % ring_size]
        node.invalidate_routing_table()

