"""The Chord ring: membership, ownership and stabilisation.

:class:`ChordRing` owns the set of :class:`~repro.overlay.node.ChordNode`
objects, handles joins and leaves, answers "which live node owns key ``k``"
and keeps routing state consistent via :func:`rebuild_routing_state` (the
simulation substitute for Chord's periodic stabilisation).

Ownership follows the paper's generic KBR formulation — the peer with the ID
*equal or numerically closest* to the key — rather than strict
successor-ownership, because that is the property D-ring's engineered
identifiers rely on ("the DHT key-based routing service redirects the message
to the directory peer that has an ID that is numerically closest",
Section 3.2).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Sequence

from repro.overlay.idspace import IdSpace
from repro.overlay.node import ChordNode, rebuild_routing_state


class ChordRing:
    """A simulated Chord ring over an ``m``-bit identifier space."""

    __slots__ = (
        "idspace",
        "successor_list_size",
        "auto_stabilize",
        "_nodes",
        "_live_cache",
    )

    def __init__(
        self,
        idspace: IdSpace,
        successor_list_size: int = 4,
        auto_stabilize: bool = True,
    ) -> None:
        self.idspace = idspace
        self.successor_list_size = successor_list_size
        #: when True (the default) every membership change immediately repairs
        #: routing state; experiments studying churn can disable it and call
        #: :meth:`stabilize` on their own schedule.
        self.auto_stabilize = auto_stabilize
        self._nodes: Dict[int, ChordNode] = {}
        # live_ids() runs on every bootstrap/lookup; membership changes are
        # rare by comparison, so the sorted id list is cached between them.
        self._live_cache: List[int] | None = None

    # -- membership ----------------------------------------------------------

    def __len__(self) -> int:
        return sum(1 for node in self._nodes.values() if node.alive)

    def __contains__(self, node_id: int) -> bool:
        node = self._nodes.get(node_id)
        return node is not None and node.alive

    def nodes(self) -> Sequence[ChordNode]:
        """All nodes ever added, live or not (diagnostics)."""
        return tuple(self._nodes.values())

    def live_ids(self) -> List[int]:
        cached = self._live_cache
        if cached is None:
            cached = sorted(
                node_id for node_id, node in self._nodes.items() if node.alive
            )
            self._live_cache = cached
        return cached

    def node(self, node_id: int) -> ChordNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"node {node_id} is not part of the ring") from None

    def join(self, node_id: int, peer_name: str = "") -> ChordNode:
        """Add (or revive) a node with the given identifier."""
        self.idspace.validate(node_id)
        existing = self._nodes.get(node_id)
        if existing is not None and existing.alive:
            raise ValueError(f"node id {node_id} already joined the ring")
        node = ChordNode(node_id, self.idspace, peer_name=peer_name)
        self._nodes[node_id] = node
        self._live_cache = None
        if self.auto_stabilize:
            self.stabilize()
        return node

    def leave(self, node_id: int) -> None:
        """Graceful departure: the node is removed and routing state repaired."""
        node = self.node(node_id)
        node.alive = False
        del self._nodes[node_id]
        self._live_cache = None
        if self.auto_stabilize:
            self.stabilize()

    def fail(self, node_id: int) -> None:
        """Abrupt failure: the node stops responding but neighbours still point at it.

        Until :meth:`stabilize` runs, lookups may be routed towards the dead
        node; the router treats that as a hop to a dead node and falls back to
        the next-best known node, mirroring real DHT behaviour under churn.
        """
        self.node(node_id).alive = False
        self._live_cache = None

    def stabilize(self) -> None:
        """Repair fingers, successor lists and predecessors of all live nodes."""
        # Purge failed nodes from the table first so rebuild ignores them.
        self._nodes = {nid: n for nid, n in self._nodes.items() if n.alive}
        self._live_cache = None
        rebuild_routing_state(self._nodes, self.successor_list_size)

    # -- ownership -----------------------------------------------------------

    def owner_of(self, key: int) -> Optional[ChordNode]:
        """The live node numerically closest to ``key`` (None on an empty ring)."""
        live = self.live_ids()
        if not live:
            return None
        return self._nodes[self.idspace.closest_in_sorted(key, live)]

    # -- idealised routing -------------------------------------------------------

    def ideal_route(self, start_node_id: int, key: int) -> List[int]:
        """Chord route under perfectly converged finger tables.

        The path is computed directly from the live membership (each hop's
        finger ``successor(current + 2^i)`` is derived on demand), which gives
        exactly the hops a fully stabilised Chord would take without paying
        for materialised finger tables on every join.  The destination is the
        classic Chord owner, ``successor(key)``.  Used by the Squirrel
        baseline, whose membership changes on every client arrival.
        """
        self.idspace.validate(key)
        if start_node_id not in self:
            raise KeyError(f"start node {start_node_id} is not a live ring member")
        live = self.live_ids()
        if not live:
            return [start_node_id]

        # The per-hop circular arithmetic is inlined (identifiers are already
        # normalised members of the space, so "finger in (current, key]" is
        # one modular-distance compare): this loop runs O(log n) bisects per
        # hop on the Squirrel dispatch hot path.
        n = len(live)
        size = self.idspace.size
        bisect_left = bisect.bisect_left

        destination = live[bisect_left(live, key) % n]
        path = [start_node_id]
        current = start_node_id
        guard = 4 * self.idspace.bits
        while current != destination and len(path) <= guard:
            next_hop = None
            # Fingers whose start lies beyond the key overshoot it, so the scan
            # starts at the largest power of two not exceeding the remaining
            # clockwise distance (classic closest-preceding-finger behaviour).
            remaining = (key - current) % size
            start_index = max(0, remaining.bit_length() - 1)
            for index in range(start_index, -1, -1):
                finger = live[bisect_left(live, (current + (1 << index)) % size) % n]
                if finger == current:
                    continue
                if 0 < (finger - current) % size <= remaining:
                    next_hop = finger
                    break
            if next_hop is None or next_hop == current:
                next_hop = destination
            path.append(next_hop)
            current = next_hop
        return path

    # -- bulk construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        idspace: IdSpace,
        node_ids: Iterable[int],
        peer_names: Optional[Dict[int, str]] = None,
        successor_list_size: int = 4,
    ) -> "ChordRing":
        """Construct a stabilised ring containing ``node_ids`` in one shot."""
        ring = cls(idspace, successor_list_size=successor_list_size, auto_stabilize=False)
        names = peer_names or {}
        for node_id in node_ids:
            ring.join(node_id, peer_name=names.get(node_id, ""))
        ring.auto_stabilize = True
        ring.stabilize()
        return ring
