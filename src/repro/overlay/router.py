"""Key-based routing (KBR) over the Chord ring.

Implements the common structured-overlay API of Dabek et al. that the paper
builds on: ``route(key, msg)`` forwards a message hop by hop until the node
whose identifier is numerically closest to the key is reached.

Two per-hop policies are available:

* :attr:`RoutingPolicy.STANDARD` — Algorithm 1: plain ``local_lookup``;
* :attr:`RoutingPolicy.CONSTRAINED` — Algorithm 2: after the local lookup, if
  the candidate does not satisfy the key's constraint (for D-ring: same
  website ID), a conditional local lookup restricted to satisfying nodes is
  attempted; if none is known, the original candidate is kept.  D-ring's
  engineered identifiers make that constraint one contiguous
  :class:`~repro.overlay.idspace.IdRange`, which the node's
  ``lookup_in_range`` answers with two bisections.

The router accounts hops and per-hop latency (through an optional latency
callback), which is how the experiments measure *lookup latency*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Optional

from repro.overlay.chord import ChordRing
from repro.overlay.idspace import IdRange


class RoutingError(RuntimeError):
    """Raised when a message cannot make progress (partitioned or empty ring)."""


class RoutingPolicy(Enum):
    """Per-hop forwarding rule."""

    STANDARD = "standard"
    CONSTRAINED = "constrained"


@dataclass(slots=True)
class RouteResult:
    """Outcome of routing one message."""

    key: int
    destination: int
    path: List[int] = field(default_factory=list)
    latency_ms: float = 0.0
    delivered: bool = True

    @property
    def hops(self) -> int:
        """Number of overlay hops traversed (path transitions)."""
        return max(0, len(self.path) - 1)

    @property
    def source(self) -> int:
        return self.path[0] if self.path else self.destination


LatencyCallback = Callable[[str, str], float]


class KBRRouter:
    """Routes messages over a :class:`~repro.overlay.chord.ChordRing`."""

    __slots__ = ("_ring", "_latency", "_max_hops")

    def __init__(
        self,
        ring: ChordRing,
        latency_callback: Optional[LatencyCallback] = None,
        max_hops: Optional[int] = None,
    ) -> None:
        self._ring = ring
        self._latency = latency_callback
        # Optional explicit bound; when None the bound adapts to the live ring
        # size at route time (see _hop_bound).
        self._max_hops = max_hops

    def _hop_bound(self) -> int:
        """Hop bound for one route call.

        Greedy numerically-closest routing strictly decreases the distance to
        the key every hop, so it always terminates; with bidirectional finger
        tables (see :mod:`repro.overlay.node`) every hop roughly halves the
        remaining distance whichever way around the ring the key lies, so
        genuine routes take O(log n) hops.  The bound is a small multiple of
        the identifier width — enough slack for stale-entry retries after
        churn — and only exists to turn genuinely corrupted routing state
        into an error instead of an infinite loop.
        """
        if self._max_hops is not None:
            return self._max_hops
        return 8 * self._ring.idspace.bits + 32

    @property
    def ring(self) -> ChordRing:
        return self._ring

    def route(
        self,
        start_node_id: int,
        key: int,
        policy: RoutingPolicy = RoutingPolicy.STANDARD,
        constraint: Optional[IdRange] = None,
    ) -> RouteResult:
        """Route a message with ``key`` starting at ``start_node_id``.

        Returns a :class:`RouteResult` whose ``destination`` is the node that
        delivered the message.  ``constraint`` is only consulted when
        ``policy`` is :attr:`RoutingPolicy.CONSTRAINED`, which requires one.
        """
        self._ring.idspace.validate(key)
        constrained = policy is RoutingPolicy.CONSTRAINED
        if constrained and constraint is None:
            raise ValueError("CONSTRAINED routing requires an IdRange constraint")
        if start_node_id not in self._ring:
            raise RoutingError(f"start node {start_node_id} is not a live ring member")

        current = self._ring.node(start_node_id)
        path = [current.node_id]
        latency_total = 0.0
        max_hops = self._hop_bound()
        low, high = constraint if constraint is not None else (0, 0)

        for _ in range(max_hops):
            next_id = current.local_lookup(key)
            if constrained and next_id != current.node_id and not low <= next_id < high:
                conditional = current.lookup_in_range(key, low, high)
                if conditional is not None:
                    next_id = conditional

            if next_id == current.node_id:
                # The message has reached the node closest to the key that the
                # current node knows of: deliver here (Algorithm 1's `deliver`).
                return RouteResult(
                    key=key, destination=current.node_id, path=path, latency_ms=latency_total
                )

            next_node = self._ring._nodes.get(next_id)  # may be a stale, failed entry
            if next_node is None or not next_node.alive:
                # Stale routing entry pointing at a failed node: drop it and retry
                # the lookup from the same node (keepalive-style failure detection).
                current.forget(next_id)
                continue

            if self._latency is not None:
                latency_total += self._latency(current.peer_name, next_node.peer_name)
            path.append(next_id)
            current = next_node

        raise RoutingError(
            f"message for key {key} exceeded {max_hops} hops; routing state is inconsistent"
        )

    def lookup(self, start_node_id: int, raw_key: str) -> RouteResult:
        """Convenience wrapper hashing ``raw_key`` before routing (Squirrel-style)."""
        return self.route(start_node_id, self._ring.idspace.hash_key(raw_key))
