"""A Pastry-style structured overlay.

The paper states that D-ring "can be integrated into any existing structured
overlay based on a standard DHT (e.g., Chord, Pastry)" and its evaluation
simulates Chord.  This module provides the Pastry alternative so the claim is
exercised in code: nodes keep a *leaf set* (the numerically closest nodes on
either side) and a *prefix routing table* (for each prefix length and next
digit, one node sharing that prefix), and per-hop forwarding follows Pastry's
rule — forward to a node whose identifier shares a longer prefix with the key,
or failing that to one numerically closer.

:class:`PastryRing` mirrors the public surface of
:class:`repro.overlay.chord.ChordRing` (join/leave/fail/stabilize/owner_of/
live node access), and :class:`PastryNode` exposes the same ``local_lookup`` /
``lookup_in_range`` primitives, so the generic
:class:`repro.overlay.router.KBRRouter` and the D-ring layer work unchanged on
top of either substrate.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.overlay.idspace import IdSpace


class PastryNode:
    """Routing state of one Pastry participant."""

    def __init__(
        self,
        node_id: int,
        idspace: IdSpace,
        peer_name: str = "",
        digit_bits: int = 4,
        leaf_set_size: int = 8,
    ) -> None:
        idspace.validate(node_id)
        if digit_bits <= 0:
            raise ValueError("digit_bits must be positive")
        if leaf_set_size <= 0 or leaf_set_size % 2 != 0:
            raise ValueError("leaf_set_size must be a positive even number")
        self.node_id = node_id
        self.idspace = idspace
        self.peer_name = peer_name or f"node-{node_id}"
        self.digit_bits = digit_bits
        self.leaf_set_size = leaf_set_size
        self.alive = True
        #: routing_table[row][digit] -> node id sharing `row` digits with us and
        #: having `digit` as its next identifier digit
        self.routing_table: Dict[int, Dict[int, int]] = {}
        #: numerically closest nodes, half below and half above on the ring
        self.leaf_set: List[int] = []

    # -- identifier digits ----------------------------------------------------

    @property
    def num_digits(self) -> int:
        return (self.idspace.bits + self.digit_bits - 1) // self.digit_bits

    def digit(self, identifier: int, row: int) -> int:
        """The ``row``-th most significant ``digit_bits``-wide digit of ``identifier``."""
        shift = (self.num_digits - 1 - row) * self.digit_bits
        return (identifier >> shift) & ((1 << self.digit_bits) - 1)

    def shared_prefix_length(self, identifier: int) -> int:
        """Number of leading digits ``identifier`` shares with this node's id."""
        for row in range(self.num_digits):
            if self.digit(identifier, row) != self.digit(self.node_id, row):
                return row
        return self.num_digits

    # -- routing state -----------------------------------------------------------

    def known_nodes(self) -> Set[int]:
        known: Set[int] = {self.node_id}
        known.update(self.leaf_set)
        for row in self.routing_table.values():
            known.update(row.values())
        return known

    def forget(self, node_id: int) -> None:
        self.leaf_set = [n for n in self.leaf_set if n != node_id]
        for row in self.routing_table.values():
            stale = [digit for digit, node in row.items() if node == node_id]
            for digit in stale:
                del row[digit]

    # -- lookups (same primitives the KBR router relies on) -------------------------

    def local_lookup(self, key: int) -> int:
        """Pastry forwarding rule, collapsed to "best known node for this key".

        Prefer nodes whose identifier shares a strictly longer prefix with the
        key than ours does; among those (or, failing any, among all known
        nodes) pick the numerically closest to the key.  Returning ourselves
        means the message is delivered here.
        """
        known = sorted(self.known_nodes())
        own_prefix = self.shared_prefix_length(key)
        better_prefix = [
            node
            for node in known
            if node != self.node_id and self._prefix_length(node, key) > own_prefix
        ]
        candidates = better_prefix if better_prefix else known
        best = self.idspace.closest_in_sorted(key, candidates)
        # Never take a hop that moves numerically further from the key.
        if self.idspace.circular_distance(key, best) > self.idspace.circular_distance(
            key, self.node_id
        ):
            return self.node_id
        return best

    def lookup_in_range(self, key: int, low: int, high: int) -> Optional[int]:
        """Closest known node with ``low <= id < high``, or ``None`` if there is none."""
        candidates = sorted(node for node in self.known_nodes() if low <= node < high)
        if not candidates:
            return None
        return self.idspace.closest_in_sorted(key, candidates)

    def _prefix_length(self, node_id: int, key: int) -> int:
        length = 0
        for row in range(self.num_digits):
            if self.digit(node_id, row) != self.digit(key, row):
                break
            length += 1
        return length


def rebuild_pastry_state(nodes: Dict[int, "PastryNode"]) -> None:
    """Recompute leaf sets and routing tables of all live nodes (stabilisation)."""
    live_ids = sorted(node_id for node_id, node in nodes.items() if node.alive)
    if not live_ids:
        return
    ring_size = len(live_ids)
    position = {node_id: index for index, node_id in enumerate(live_ids)}

    for node_id in live_ids:
        node = nodes[node_id]
        half = node.leaf_set_size // 2
        index = position[node_id]
        leaves: List[int] = []
        for offset in range(1, min(half, ring_size - 1) + 1):
            leaves.append(live_ids[(index - offset) % ring_size])
            leaves.append(live_ids[(index + offset) % ring_size])
        node.leaf_set = sorted(set(leaves) - {node_id})

        table: Dict[int, Dict[int, int]] = {}
        for other in live_ids:
            if other == node_id:
                continue
            row = node.shared_prefix_length(other)
            digit = node.digit(other, row) if row < node.num_digits else 0
            slot = table.setdefault(row, {})
            current = slot.get(digit)
            # Keep the numerically closest candidate per slot (a common
            # locality-agnostic tie-break; real Pastry uses proximity).
            if current is None or node.idspace.circular_distance(node_id, other) < \
                    node.idspace.circular_distance(node_id, current):
                slot[digit] = other
        node.routing_table = table


class PastryRing:
    """A simulated Pastry overlay with the same public surface as ChordRing."""

    __slots__ = ("idspace", "digit_bits", "leaf_set_size", "auto_stabilize", "_nodes")

    def __init__(
        self,
        idspace: IdSpace,
        digit_bits: int = 4,
        leaf_set_size: int = 8,
        auto_stabilize: bool = True,
    ) -> None:
        self.idspace = idspace
        self.digit_bits = digit_bits
        self.leaf_set_size = leaf_set_size
        self.auto_stabilize = auto_stabilize
        self._nodes: Dict[int, PastryNode] = {}

    # -- membership ------------------------------------------------------------

    def __len__(self) -> int:
        return sum(1 for node in self._nodes.values() if node.alive)

    def __contains__(self, node_id: int) -> bool:
        node = self._nodes.get(node_id)
        return node is not None and node.alive

    def live_ids(self) -> List[int]:
        return sorted(node_id for node_id, node in self._nodes.items() if node.alive)

    def node(self, node_id: int) -> PastryNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"node {node_id} is not part of the ring") from None

    def join(self, node_id: int, peer_name: str = "") -> PastryNode:
        self.idspace.validate(node_id)
        existing = self._nodes.get(node_id)
        if existing is not None and existing.alive:
            raise ValueError(f"node id {node_id} already joined the ring")
        node = PastryNode(
            node_id,
            self.idspace,
            peer_name=peer_name,
            digit_bits=self.digit_bits,
            leaf_set_size=self.leaf_set_size,
        )
        self._nodes[node_id] = node
        if self.auto_stabilize:
            self.stabilize()
        return node

    def leave(self, node_id: int) -> None:
        node = self.node(node_id)
        node.alive = False
        del self._nodes[node_id]
        if self.auto_stabilize:
            self.stabilize()

    def fail(self, node_id: int) -> None:
        self.node(node_id).alive = False

    def stabilize(self) -> None:
        self._nodes = {nid: n for nid, n in self._nodes.items() if n.alive}
        rebuild_pastry_state(self._nodes)

    # -- ownership --------------------------------------------------------------------

    def owner_of(self, key: int) -> Optional[PastryNode]:
        live = self.live_ids()
        if not live:
            return None
        return self._nodes[self.idspace.closest_in_sorted(key, live)]

    # -- bulk construction ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        idspace: IdSpace,
        node_ids: Iterable[int],
        peer_names: Optional[Dict[int, str]] = None,
        digit_bits: int = 4,
        leaf_set_size: int = 8,
    ) -> "PastryRing":
        ring = cls(
            idspace, digit_bits=digit_bits, leaf_set_size=leaf_set_size, auto_stabilize=False
        )
        names = peer_names or {}
        for node_id in node_ids:
            ring.join(node_id, peer_name=names.get(node_id, ""))
        ring.auto_stabilize = True
        ring.stabilize()
        return ring
