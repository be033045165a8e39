"""D-ring: the structured directory overlay (Section 3).

The D-ring embeds one directory peer per (website, locality) pair into a
standard DHT (Chord here) using the engineered identifiers of
:class:`repro.core.keys.KeyScheme`.  Routing uses Algorithm 2: the standard
per-hop lookup plus, when the candidate's website ID differs from the key's,
a conditional lookup restricted to nodes of the same website, which keeps a
query for website ``ws`` inside ``ws``'s directory peers even when the exact
``d(ws, loc)`` is missing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import random

from repro.core.keys import KeyScheme
from repro.overlay.chord import ChordRing
from repro.overlay.router import (
    KBRRouter,
    LatencyCallback,
    RouteResult,
    RoutingPolicy,
)


@dataclass(frozen=True)
class DirectoryPlacement:
    """Where one directory peer sits on the D-ring."""

    website: str
    locality: int
    node_id: int
    peer_id: str


class DRing:
    """The directory overlay: engineered IDs over a Chord ring."""

    __slots__ = ("_keys", "_ring", "_router", "_placements", "_by_website")

    def __init__(
        self,
        keys: KeyScheme,
        latency_callback: Optional[LatencyCallback] = None,
        successor_list_size: int = 4,
        # Nominally Chord; any overlay with the same surface works
        # (PastryRing duck-types, exactly as KBRRouter accepts it).
        ring: Optional[ChordRing] = None,
    ) -> None:
        """Create a D-ring over a structured overlay.

        ``ring`` may be any overlay exposing the ChordRing surface (join,
        leave, fail, stabilize, owner_of, node, live_ids) — Section 3.1's
        "any existing structured overlay".  The default is Chord, as in the
        paper's evaluation; :class:`repro.overlay.pastry.PastryRing` is the
        other substrate shipped with this reproduction.
        """
        self._keys = keys
        self._ring = ring if ring is not None else ChordRing(
            keys.idspace, successor_list_size=successor_list_size
        )
        self._router = KBRRouter(self._ring, latency_callback=latency_callback)
        self._placements: Dict[int, DirectoryPlacement] = {}
        #: website -> locality -> placement
        self._by_website: Dict[str, Dict[int, DirectoryPlacement]] = {}

    # -- accessors ----------------------------------------------------------

    @property
    def keys(self) -> KeyScheme:
        return self._keys

    @property
    def ring(self) -> ChordRing:
        return self._ring

    @property
    def size(self) -> int:
        return len(self._ring)

    def placements(self) -> Sequence[DirectoryPlacement]:
        return tuple(self._placements.values())

    def placement_for(self, website: str, locality: int) -> Optional[DirectoryPlacement]:
        return self._by_website.get(website, {}).get(locality)

    def placement_at(self, node_id: int) -> Optional[DirectoryPlacement]:
        return self._placements.get(node_id)

    def directory_peer_id(self, website: str, locality: int) -> Optional[str]:
        placement = self.placement_for(website, locality)
        return placement.peer_id if placement else None

    # -- membership -----------------------------------------------------------

    def register_directory(self, website: str, locality: int, peer_id: str) -> DirectoryPlacement:
        """Join the D-ring as the directory peer of ``(website, locality)``."""
        node_id = self._keys.key_for(website, locality)
        if node_id in self._ring:
            existing = self._placements.get(node_id)
            owner = existing.peer_id if existing else "an unknown peer"
            raise ValueError(
                f"directory position for ({website}, {locality}) is already held by {owner}"
            )
        self._ring.join(node_id, peer_name=peer_id)
        placement = DirectoryPlacement(
            website=website, locality=locality, node_id=node_id, peer_id=peer_id
        )
        self._placements[node_id] = placement
        self._by_website.setdefault(website, {})[locality] = placement
        return placement

    def remove_directory(self, website: str, locality: int, failed: bool = False) -> None:
        """Remove a directory peer, gracefully or after a failure."""
        placement = self._by_website.get(website, {}).pop(locality, None)
        if placement is None:
            return
        del self._placements[placement.node_id]
        if failed:
            self._ring.fail(placement.node_id)
        else:
            self._ring.leave(placement.node_id)

    def replace_directory(self, website: str, locality: int, new_peer_id: str) -> DirectoryPlacement:
        """Install ``new_peer_id`` at the (unchanged) identifier of ``(website, locality)``.

        This is the paper's replacement strategy (Section 5.2): the replacing
        content peer takes over the *same* engineered identifier, then the
        usual stabilisation repairs the routing tables — which
        :class:`~repro.overlay.chord.ChordRing` does on join.
        """
        self.remove_directory(website, locality)
        self._ring.stabilize()
        return self.register_directory(website, locality, new_peer_id)

    # -- routing (Algorithm 2) ----------------------------------------------------

    def route_query(
        self, website: str, locality: int, start_node_id: Optional[int] = None
    ) -> RouteResult:
        """Route a query for ``(website, locality)`` through the D-ring.

        ``start_node_id`` identifies the D-ring node at which the new client's
        query enters the overlay (its bootstrap contact); when omitted the
        message starts at the live node closest to the key, modelling a client
        whose bootstrap node happens to be the right directory peer.
        """
        key = self._keys.key_for(website, locality)
        if start_node_id is None:
            owner = self._ring.owner_of(key)
            if owner is None:
                raise RuntimeError("cannot route on an empty D-ring")
            start_node_id = owner.node_id
        return self._router.route(
            start_node_id,
            key,
            policy=RoutingPolicy.CONSTRAINED,
            constraint=self._keys.website_constraint(key),
        )

    def resolve_directory(self, website: str, locality: int,
                          start_node_id: Optional[int] = None) -> tuple[Optional[DirectoryPlacement], RouteResult]:
        """Route to the directory peer in charge of ``(website, locality)``.

        Returns the placement of the node that delivered the message (which is
        ``d(website, locality)`` when it is present, else another directory
        peer of the same website thanks to Algorithm 2) plus the route taken.
        """
        result = self.route_query(website, locality, start_node_id=start_node_id)
        return self._placements.get(result.destination), result

    # -- neighbourhood ---------------------------------------------------------------

    def neighbors_of(self, website: str, locality: int) -> List[DirectoryPlacement]:
        """The directory peers adjacent on the ring that serve the same website.

        With the engineered identifiers the directory peers of one website are
        consecutive, so the D-ring neighbours of ``d(ws, loc)`` that matter for
        directory summaries are ``d(ws, loc-1)`` and ``d(ws, loc+1)`` when they
        exist (Figure 4 keeps summaries for exactly those two).
        """
        neighbors: List[DirectoryPlacement] = []
        by_locality = self._by_website.get(website, {})
        num_localities = max(by_locality, default=-1) + 1
        if num_localities <= 1:
            return neighbors
        for delta in (-1, 1):
            neighbor_loc = (locality + delta) % num_localities
            if neighbor_loc == locality:
                continue
            placement = by_locality.get(neighbor_loc)
            if placement is not None and placement not in neighbors:
                neighbors.append(placement)
        return neighbors

    def random_bootstrap_node(self, rng: random.Random) -> Optional[int]:
        """A random live D-ring node, used as the entry point of new clients."""
        live = self._ring.live_ids()
        if not live:
            return None
        return rng.choice(live)
