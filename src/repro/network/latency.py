"""Latency oracle mapping overlay peers onto underlying hosts.

Overlay peers (directory peers, content peers, clients, web servers) are
mapped to hosts of the :class:`~repro.network.topology.Topology`; this module
answers "how long does a message from peer A to peer B take" and "how far is
the object transfer from provider to requester", the two quantities the
paper's *lookup latency* and *transfer distance* metrics are built from.

Origin web servers are modelled as hosts placed outside every locality (the
paper's transfer distance is high while queries are served by origin
servers), implemented as a configurable fixed penalty latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.network.topology import Topology


@dataclass(frozen=True)
class ServerPlacement:
    """Latency model for an origin web server.

    The paper does not place origin servers inside any locality; requests
    served by the origin observe a large network distance.  We model a server
    as a virtual host at ``server_latency_ms`` from every peer (default: the
    topology's maximum latency).
    """

    server_latency_ms: Optional[float] = None


class LatencyModel:
    """Message-delay and transfer-distance oracle for overlay entities."""

    def __init__(self, topology: Topology, server_placement: ServerPlacement | None = None) -> None:
        self._topology = topology
        self._peer_hosts: Dict[str, int] = {}
        placement = server_placement or ServerPlacement()
        self._server_latency_ms = (
            placement.server_latency_ms
            if placement.server_latency_ms is not None
            else topology.config.max_latency_ms
        )

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def server_latency_ms(self) -> float:
        return self._server_latency_ms

    # -- peer registration ---------------------------------------------------

    def register_peer(self, peer_id: str, host_id: int) -> None:
        """Bind an overlay peer identifier to an underlying host."""
        if not 0 <= host_id < self._topology.num_hosts:
            raise ValueError(f"host_id {host_id} outside topology of {self._topology.num_hosts}")
        self._peer_hosts[peer_id] = host_id

    def fork(self) -> "LatencyModel":
        """A model that starts from this one's registrations and shares none after."""
        twin = LatencyModel(self._topology, ServerPlacement(self._server_latency_ms))
        twin._peer_hosts = dict(self._peer_hosts)
        return twin

    def unregister_peer(self, peer_id: str) -> None:
        self._peer_hosts.pop(peer_id, None)

    def host_of(self, peer_id: str) -> int:
        try:
            return self._peer_hosts[peer_id]
        except KeyError:
            raise KeyError(f"peer {peer_id!r} is not registered with the latency model") from None

    def is_registered(self, peer_id: str) -> bool:
        return peer_id in self._peer_hosts

    def locality_of(self, peer_id: str) -> int:
        return self._topology.locality_of(self.host_of(peer_id))

    # -- latency queries -----------------------------------------------------

    def latency_ms(self, src_peer: str, dst_peer: str) -> float:
        """One-way message latency between two registered peers, in ms.

        Pair latencies are memoised at the topology layer (symmetric host-pair
        cache), so repeated queries between the same directory/content peers —
        the hot path of every lookup — cost two dict lookups plus a cache hit.
        """
        peer_hosts = self._peer_hosts
        try:
            src_host = peer_hosts[src_peer]
            dst_host = peer_hosts[dst_peer]
        except KeyError:
            # Re-raise through host_of for the precise per-peer error message.
            src_host = self.host_of(src_peer)
            dst_host = self.host_of(dst_peer)
        return self._topology.latency_ms(src_host, dst_host)

    def latency_cache_info(self) -> Dict[str, int]:
        """Statistics of the underlying topology's pairwise latency memo."""
        return self._topology.latency_cache_info()

    def latency_to_server_ms(self, peer_id: str) -> float:
        """Latency between a registered peer and an origin web server, in ms."""
        self.host_of(peer_id)  # validate registration
        return self._server_latency_ms

    def transfer_distance_ms(self, requester: str, provider: Optional[str]) -> float:
        """Transfer distance metric: requester-to-provider network distance.

        ``provider is None`` means the object was served by the origin server.
        """
        if provider is None:
            return self.latency_to_server_ms(requester)
        return self.latency_ms(requester, provider)
