"""Active replication: push popular content between overlays of one website.

Section 8 of the paper lists this as planned work: "introduce active
replication by pushing popular contents from some content overlay towards
other overlays of the same website".  The extension implemented here does
exactly that on top of the running system:

* each directory peer already counts how often every object is requested
  (:meth:`repro.core.directory_peer.DirectoryPeer.popular_objects`);
* periodically, the replicator takes the ``top_k`` most popular objects of
  every active content overlay and pushes a copy to each *neighbouring*
  overlay of the same website (the ones reachable through directory
  summaries) that does not hold it yet;
* the copy is stored at the least-loaded content peer of the target overlay
  and registered in the target directory's index, so later local queries in
  that locality hit immediately instead of travelling across localities or to
  the origin server;
* the pushed bytes are charged to the bandwidth accountant under the
  ``replication`` category, keeping the cost visible next to the gossip
  overhead the paper analyses.

Because this is an extension beyond the evaluated system, it is off by
default; the ablation benchmark ``benchmarks/test_ablation_active_replication``
measures its effect against the unmodified system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.directory_peer import DirectoryPeer
from repro.core.system import FlowerCDN
from repro.sim.process import PeriodicInjector
from repro.workload.catalog import ObjectId


@dataclass(frozen=True)
class ReplicationConfig:
    """Parameters of the active-replication extension."""

    #: how often the replicator scans overlays for popular content
    period_s: float = 1800.0
    #: how many popular objects per overlay are considered each round
    top_k: int = 5
    #: minimum number of requests an object needs before it is replicated
    min_requests: int = 3
    #: assumed wire size of one replicated object (for bandwidth accounting)
    object_size_bytes: int = 50_000

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if self.top_k <= 0:
            raise ValueError("top_k must be positive")
        if self.min_requests < 1:
            raise ValueError("min_requests must be at least 1")
        if self.object_size_bytes <= 0:
            raise ValueError("object_size_bytes must be positive")


@dataclass
class ReplicationEvent:
    """One object pushed from a source overlay to a target overlay."""

    time: float
    website: str
    object_id: ObjectId
    source_locality: int
    target_locality: int
    target_peer: str


class ActiveReplicator(PeriodicInjector):
    """Periodically pushes popular objects towards sibling content overlays."""

    __slots__ = ("_system", "_config")
    name = "active-replication"
    jitter_stream = "replication:jitter"

    def __init__(self, system: FlowerCDN, config: ReplicationConfig | None = None) -> None:
        self._config = config or ReplicationConfig()
        super().__init__(system.sim, self._config.period_s)
        self._system = system

    @property
    def config(self) -> ReplicationConfig:
        return self._config

    @property
    def events(self) -> List[ReplicationEvent]:
        """Every object pushed so far, in order (the injector's log)."""
        return self.log

    @property
    def replications_performed(self) -> int:
        return len(self.log)

    # -- one replication round ---------------------------------------------------------

    def _tick(self) -> None:
        system = self._system
        for overlay in system.active_overlays():
            website, locality = overlay.website, overlay.locality
            source = system.directory_for(website, locality)
            if source is None or not source.alive:
                continue
            candidates = [
                object_id
                for object_id in source.popular_objects(self._config.top_k)
                if source.request_count(object_id) >= self._config.min_requests
            ]
            if not candidates:
                continue
            for neighbor_placement in system.dring.neighbors_of(website, locality):
                target = system.directory_peer(neighbor_placement.peer_id)
                if target is None or not target.alive:
                    continue
                self._replicate_into(source, target, candidates)

    def _replicate_into(
        self, source: DirectoryPeer, target: DirectoryPeer, objects: List[ObjectId]
    ) -> None:
        system = self._system
        already_there = target.indexed_objects()
        members = [
            system.content_peer(peer_id)
            for peer_id in system.overlay_members(target.website, target.locality)
        ]
        members = [peer for peer in members if peer is not None and peer.alive]
        if not members:
            return
        for object_id in objects:
            if object_id in already_there:
                continue
            # Place the copy at the member currently holding the fewest objects,
            # spreading the storage load across the target overlay.
            receiver = min(members, key=lambda peer: (peer.num_objects, peer.peer_id))
            gate = system.gate
            if gate is not None and not gate.delivers(
                "replication",
                source.host_id,
                receiver.host_id,
                source.peer_id,
                receiver.peer_id,
            ):
                # The replica push is lost in transit; retried next round.
                continue
            receiver.store_object(object_id)
            target.register_client(receiver.peer_id, object_id)
            self.log.append(
                ReplicationEvent(
                    time=system.sim.now,
                    website=source.website,
                    object_id=object_id,
                    source_locality=source.locality,
                    target_locality=target.locality,
                    target_peer=receiver.peer_id,
                )
            )
            system.bandwidth.record_message(
                system.sim.now,
                source.peer_id,
                receiver.peer_id,
                self._config.object_size_bytes,
                "replication",
            )
