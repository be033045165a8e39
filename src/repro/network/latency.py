"""Latency oracle mapping overlay peers onto underlying hosts.

Overlay peers (directory peers, content peers, clients) are mapped to hosts
of the :class:`~repro.network.topology.Topology`; this module answers "how
long does a message from peer A to peer B take", the quantity the paper's
*lookup latency* and *transfer distance* metrics are built from.

Origin web servers are placed outside every locality (the paper's transfer
distance is high while queries are served by origin servers): a server is a
virtual host at the topology's maximum latency from every peer.
"""

from __future__ import annotations

from typing import Dict

from repro.network.topology import MAX_LATENCY_MS, Topology


class LatencyModel:
    """Message-delay oracle for overlay entities."""

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        self._peer_hosts: Dict[str, int] = {}

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def server_latency_ms(self) -> float:
        """Latency between any peer and an origin web server, in ms."""
        return MAX_LATENCY_MS

    # -- peer registration ---------------------------------------------------

    def register_peer(self, peer_id: str, host_id: int) -> None:
        """Bind an overlay peer identifier to an underlying host."""
        if not 0 <= host_id < self._topology.num_hosts:
            raise ValueError(f"host_id {host_id} outside topology of {self._topology.num_hosts}")
        self._peer_hosts[peer_id] = host_id

    def fork(self) -> "LatencyModel":
        """A model that starts from this one's registrations and shares none after."""
        twin = LatencyModel(self._topology)
        twin._peer_hosts = dict(self._peer_hosts)
        return twin

    def host_of(self, peer_id: str) -> int:
        try:
            return self._peer_hosts[peer_id]
        except KeyError:
            raise KeyError(f"peer {peer_id!r} is not registered with the latency model") from None

    def is_registered(self, peer_id: str) -> bool:
        return peer_id in self._peer_hosts

    # -- latency queries -----------------------------------------------------

    def latency_ms(self, src_peer: str, dst_peer: str) -> float:
        """One-way message latency between two registered peers, in ms.

        Pair latencies are memoised at the topology layer (symmetric host-pair
        memo), so repeated queries between the same directory/content peers —
        the hot path of every lookup — cost two dict lookups plus a memo hit.
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
