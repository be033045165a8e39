"""Overlay upkeep: the half of Flower-CDN that keeps the overlays alive.

The paper splits the system in two.  One half answers a query — D-ring
routing, Algorithm 3's redirection, the content-overlay lookup — and lives in
:mod:`repro.core.system`.  The other half, here, runs in the background:

* the periodic processes of every peer: gossip (Algorithm 4) and keepalives
  of content peers, directory ageing and summary refresh (Algorithm 6);
* the delta push to the directory (Algorithm 5);
* failure handling (Section 5): content-peer and directory failures,
  voluntary directory departure, directory replacement (5.2), locality
  change (5.4), post-heal reconciliation, and shutdown at the end of a run.

:class:`OverlayMaintenance` is the base class of
:class:`~repro.core.system.FlowerCDN`: it declares the peer tables both
halves act on, once, and the delivery gate both consult.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.config import (
    HEADER_BYTES,
    FlowerConfig,
    gossip_message_bytes,
    push_message_bytes,
    summary_refresh_bytes,
)
from repro.core.content_peer import ContentPeer
from repro.core.directory_peer import DirectoryPeer
from repro.network.reachability import DeliveryGate
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess

if TYPE_CHECKING:
    from repro.core.dring import DRing
    from repro.metrics.collectors import BandwidthAccountant
    from repro.network.latency import LatencyModel


# One per system, not a value class: FlowerCDN adds its own attributes.
# repro: allow(DET005)
class OverlayMaintenance:
    """The peer tables of one deployment and the upkeep that acts on them."""

    # Set by FlowerCDN before bootstrap: the D-ring, the latency oracle, the
    # bandwidth accountant and enrolment of a new client (Section 3.4).
    dring: "DRing"
    latency: "LatencyModel"
    bandwidth: "BandwidthAccountant"
    _enroll_content_peer: Callable[[str, int, int], Optional[ContentPeer]]

    def __init__(self, config: FlowerConfig, sim: Simulator) -> None:
        self.config = config
        self.sim = sim
        self._directory_peers: Dict[str, DirectoryPeer] = {}
        self._directory_by_pair: Dict[Tuple[str, int], str] = {}
        self._content_peers: Dict[str, ContentPeer] = {}
        self._overlay_members: Dict[Tuple[str, int], List[str]] = {}
        self._content_by_host: Dict[Tuple[str, int], str] = {}
        self._processes: Dict[str, List[PeriodicProcess]] = {}
        #: the delivery gate while a reachability model is attached, else
        #: ``None`` (see repro.network.reachability); ``_last_gate`` outlives
        #: detachment for end-of-run reporting
        self.gate: Optional[DeliveryGate] = None
        self._last_gate: Optional[DeliveryGate] = None
        self._push_threshold = config.gossip.push_threshold
        # Fixed-size background messages, priced once instead of per tick.
        self._gossip_message_bytes = gossip_message_bytes(
            config.summary_bits, config.gossip.gossip_length
        )
        self._summary_refresh_bytes = summary_refresh_bytes(config.summary_bits)
        # Gossip subset draws are scoped per content overlay: identically-named
        # streams yield identical sequences in any process, which is what makes
        # a blocked run reproduce the whole-catalogue draw sequences exactly.
        self._gossip_subset_rngs: Dict[Tuple[str, int], random.Random] = {}
        #: statistics
        self.directory_replacements = 0

    # ------------------------------------------------------------------ peer tables

    def directory_for(self, website: str, locality: int) -> Optional[DirectoryPeer]:
        peer_id = self._directory_by_pair.get((website, locality))
        return self._directory_peers.get(peer_id) if peer_id else None

    def alive_content_peer_ids(self, locality: Optional[int] = None) -> List[str]:
        """Sorted ids of alive content peers, optionally within one locality.

        The stable ordering makes the churn/fault injectors deterministic:
        victim draws index into this list via named random streams.
        """
        return sorted(
            peer_id
            for peer_id, peer in self._content_peers.items()
            if peer.alive and (locality is None or peer.locality == locality)
        )

    def active_directory_pairs(
        self, locality: Optional[int] = None
    ) -> List[Tuple[str, int]]:
        """Sorted (website, locality) pairs whose directory peer is alive."""
        pairs: List[Tuple[str, int]] = []
        for (website, loc), peer_id in sorted(self._directory_by_pair.items()):
            if locality is not None and loc != locality:
                continue
            directory = self._directory_peers.get(peer_id)
            if directory is not None and directory.alive:
                pairs.append((website, loc))
        return pairs

    # ------------------------------------------------------------------ processes

    def _start_directory_process(self, directory: DirectoryPeer) -> None:
        peer_id = directory.peer_id
        process = PeriodicProcess(
            self.sim,
            self.config.gossip.gossip_period_s,
            lambda: self._directory_tick(directory),
            name=f"dir-tick:{peer_id}",
            jitter_stream=f"jitter:{peer_id}",
        )
        process.start()
        self._processes[peer_id] = [process]

    def _start_content_processes(self, peer: ContentPeer) -> None:
        gossip = PeriodicProcess(
            self.sim,
            self.config.gossip.gossip_period_s,
            lambda p=peer: self._gossip_tick(p),
            name=f"gossip:{peer.peer_id}",
            jitter_stream=f"jitter:{peer.peer_id}",
        )
        keepalive = PeriodicProcess(
            self.sim,
            self.config.gossip.keepalive_period_s,
            lambda p=peer: self._keepalive_tick(p),
            name=f"keepalive:{peer.peer_id}",
            jitter_stream=f"jitter:ka:{peer.peer_id}",
        )
        gossip.start()
        keepalive.start()
        self._processes[peer.peer_id] = [gossip, keepalive]

    def _stop_processes(self, peer_id: str) -> None:
        for process in self._processes.pop(peer_id, ()):
            process.stop()

    def shutdown(self) -> None:
        """Stop every background process (the end of a run).

        Peers, directories, metrics and bandwidth stay readable; only the
        periodic gossip / keepalive / directory ticks go.
        """
        for peer_id in list(self._processes):
            self._stop_processes(peer_id)

    # ------------------------------------------------------------------ ticks

    def _gossip_subset_rng(self, peer: ContentPeer) -> random.Random:
        """The overlay-scoped gossip subset stream of ``peer``'s overlay.

        Gossip never crosses a content overlay, so draw order on an
        overlay-scoped stream is the overlay's own tick order — independent
        of how many other overlays share the simulator process.
        """
        key = (peer.website, peer.locality)
        rng = self._gossip_subset_rngs.get(key)
        if rng is None:
            rng = self.sim.streams.stream(
                f"gossip:subset:{peer.website}:{peer.locality}"
            )
            self._gossip_subset_rngs[key] = rng
        return rng

    def _gossip_tick(self, peer: ContentPeer) -> None:
        """Algorithm 4, active behaviour, plus the per-period ageing and push check."""
        if not peer.alive:
            return
        peer.increment_ages()
        partner_id = peer.select_gossip_partner()
        if partner_id is not None:
            partner = self._content_peers.get(partner_id)
            gate = self.gate
            if partner is None or not partner.alive:
                peer.forget_contact(partner_id)
            elif gate is not None and not gate.delivers(
                "gossip", peer.host_id, partner.host_id, peer.peer_id, partner.peer_id
            ):
                # Message lost in transit (partition / outage / link loss):
                # neither side exchanges views and no bandwidth is accounted;
                # ages were already incremented.
                pass
            else:
                rng = self._gossip_subset_rng(peer)
                message = peer.build_gossip_message(rng=rng)
                reply = partner.handle_gossip(message, rng=rng)
                peer.apply_gossip(reply)
                peer.gossip_initiated += 1
                size = self._gossip_message_bytes
                self.bandwidth.record_message(
                    self.sim.now, peer.peer_id, partner.peer_id, size, "gossip"
                )
                self.bandwidth.record_message(
                    self.sim.now, partner.peer_id, peer.peer_id, size, "gossip"
                )
        self._maybe_push(peer)

    def _keepalive_tick(self, peer: ContentPeer) -> None:
        if not peer.alive:
            return
        directory = self._current_directory(peer.website, peer.locality, detector=peer)
        if directory is not None:
            self._send_keepalive(peer, directory)

    def _send_keepalive(self, peer: ContentPeer, directory: DirectoryPeer) -> bool:
        """One keepalive to ``directory``; ``False`` when it is lost (the
        directory's ageing continues and may evict this peer's entries)."""
        gate = self.gate
        if gate is not None and not gate.delivers(
            "keepalive", peer.host_id, directory.host_id, peer.peer_id, directory.peer_id
        ):
            return False
        directory.handle_keepalive(peer.peer_id)
        # A keepalive is a bare header.
        self.bandwidth.record_message(
            self.sim.now, peer.peer_id, directory.peer_id, HEADER_BYTES, "keepalive"
        )
        return True

    def _directory_tick(self, directory: DirectoryPeer) -> None:
        """Algorithm 6's active behaviour plus dead-entry eviction and summary refresh."""
        if not directory.alive:
            return
        directory.increment_ages()
        # The directory no longer redirects to peers it has not heard from.
        directory.evict_dead_entries()
        if directory.should_refresh_summary():
            self._publish_summary(directory)

    def _publish_summary(self, directory: DirectoryPeer) -> None:
        """Send a fresh summary of ``directory`` to its live D-ring neighbours."""
        summary = directory.publish_summary()
        size = self._summary_refresh_bytes
        gate = self.gate
        for neighbor_placement in self.dring.neighbors_of(directory.website, directory.locality):
            neighbor = self._directory_peers.get(neighbor_placement.peer_id)
            if neighbor is None or not neighbor.alive:
                continue
            if gate is not None and not gate.delivers(
                "summary", directory.host_id, neighbor.host_id, directory.peer_id, neighbor.peer_id
            ):
                continue
            neighbor.store_neighbor_summary(directory.peer_id, summary.copy())
            self.bandwidth.record_message(
                self.sim.now, directory.peer_id, neighbor.peer_id, size, "summary"
            )

    # ------------------------------------------------------------------ push (Algorithm 5)

    def _maybe_push(self, peer: ContentPeer) -> None:
        """Algorithm 5: push the delta list once the change threshold is reached."""
        # The changed fraction of the content list, read off the peer's fields
        # in place: this guard runs after every served object.
        removed = peer._pending_removed
        changes = len(peer._pending_added) + len(removed)
        if changes == 0:
            return
        if not peer._objects and not removed:
            fraction = 0.0
        else:
            fraction = changes / max(1, len(peer._objects))
        if fraction < self._push_threshold:
            return
        directory = self._current_directory(peer.website, peer.locality, detector=peer)
        if directory is not None:
            self._push(peer, directory)

    def _push(self, peer: ContentPeer, directory: DirectoryPeer) -> None:
        """Algorithm 5's message as a call: the delta list leaves ``peer`` and is
        applied at ``directory``.  A push the gate loses is deferred: pending
        changes keep accumulating and the next threshold crossing (or a
        post-heal reconcile) retries."""
        gate = self.gate
        if gate is not None and not gate.delivers(
            "push", peer.host_id, directory.host_id, peer.peer_id, directory.peer_id
        ):
            return
        added, removed = peer.take_delta()
        directory.apply_delta(peer.peer_id, added, removed)
        peer.note_directory(directory.peer_id)
        size = push_message_bytes(len(added) + len(removed))
        self.bandwidth.record_message(self.sim.now, peer.peer_id, directory.peer_id, size, "push")

    def reconcile(self, localities: Optional[Tuple[int, ...]] = None) -> None:
        """Post-heal reconciliation through the existing state-transfer paths.

        After a partition heals, peers in the affected localities do not wait
        for their next periodic tick: every alive content peer immediately
        re-announces itself to its directory (keepalive, plus a delta push if
        it accumulated content changes during the fault), and every affected
        directory force-republishes its summary to its D-ring neighbours.
        All messages still go through the delivery gate, so calling this
        while the fault is active reconciles nothing — schedule it at the
        heal time (episode windows are half-open, so the heal instant is
        already reachable).
        """
        if self._last_gate is not None:
            self._last_gate.stats.reconciliations += 1
            self._last_gate.clear_suspicion()
        affected = None if localities is None else set(localities)
        for peer_id in self.alive_content_peer_ids():
            peer = self._content_peers[peer_id]
            if affected is not None and peer.locality not in affected:
                continue
            directory = self._current_directory(peer.website, peer.locality, detector=peer)
            if directory is None or not self._send_keepalive(peer, directory):
                continue
            if peer._pending_added or peer._pending_removed:
                self._push(peer, directory)
        for (_, locality), directory_id in sorted(self._directory_by_pair.items()):
            directory = self._directory_peers.get(directory_id)
            if directory is not None and directory.alive and (
                affected is None or locality in affected
            ):
                self._publish_summary(directory)

    # ------------------------------------------------------------------ failures (Section 5)

    def _current_directory(
        self, website: str, locality: int, detector: Optional[ContentPeer] = None
    ) -> Optional[DirectoryPeer]:
        """The live directory peer of (website, locality), repairing it if needed."""
        directory = self.directory_for(website, locality)
        if directory is not None and directory.alive:
            return directory
        if detector is not None:
            return self._replace_directory(website, locality, detector)
        return None

    def _replace_directory(
        self, website: str, locality: int, detector: ContentPeer
    ) -> Optional[DirectoryPeer]:
        """Section 5.2: a content peer takes over the failed directory's identifier."""
        if not detector.alive:
            return None
        key = (website, locality)
        old_id = self._directory_by_pair.get(key)
        if old_id is not None:
            old = self._directory_peers.get(old_id)
            if old is not None and old.alive:
                return old  # someone else already repaired it
            self.dring.remove_directory(website, locality, failed=True)
        generation = self.directory_replacements + 1
        peer_id = f"d({website},{locality})#{generation}"
        self.latency.register_peer(peer_id, detector.host_id)
        placement = self.dring.replace_directory(website, locality, peer_id)
        replacement = DirectoryPeer(
            peer_id=peer_id,
            host_id=detector.host_id,
            website=website,
            locality=locality,
            node_id=placement.node_id,
            config=self.config,
        )
        # The new directory answers first queries from what its host already
        # knows: its own content; the rest of the index rebuilds from pushes.
        replacement.register_client(detector.peer_id)
        replacement.apply_delta(detector.peer_id, sorted(detector._objects), ())
        self._directory_peers[peer_id] = replacement
        self._directory_by_pair[key] = peer_id
        self._start_directory_process(replacement)
        self.directory_replacements += 1
        return replacement

    def fail_content_peer(self, peer_id: str) -> bool:
        """Abruptly fail a content peer (used by the churn injector)."""
        peer = self._content_peers.get(peer_id)
        if peer is None or not peer.alive:
            return False
        peer.fail()
        self._stop_processes(peer_id)
        return True

    def fail_directory(self, website: str, locality: int) -> bool:
        """Abruptly fail the directory peer of (website, locality)."""
        directory = self.directory_for(website, locality)
        if directory is None or not directory.alive:
            return False
        directory.fail()
        self._stop_processes(directory.peer_id)
        self.dring.remove_directory(website, locality, failed=True)
        return True

    def leave_directory(self, website: str, locality: int) -> Optional[str]:
        """Voluntary departure: the directory hands its state to a content peer."""
        directory = self.directory_for(website, locality)
        if directory is None or not directory.alive:
            return None
        members = [
            self._content_peers[m]
            for m in self._overlay_members.get((website, locality), ())
            if m in self._content_peers and self._content_peers[m].alive
        ]
        state = directory.export_state()
        directory.fail()
        self._stop_processes(directory.peer_id)
        self.dring.remove_directory(website, locality, failed=False)
        if not members:
            return None
        successor = max(members, key=lambda p: p.num_objects)
        replacement = self._replace_directory(website, locality, successor)
        if replacement is not None:
            replacement.import_state(state)
            return replacement.peer_id
        return None

    def change_locality(self, peer_id: str, new_locality: int) -> Optional[str]:
        """Section 5.4: a peer that changed locality re-joins as a new client there."""
        peer = self._content_peers.get(peer_id)
        if peer is None or not peer.alive:
            return None
        self.fail_content_peer(peer_id)
        old_key = (peer.website, peer.locality)
        if peer_id in self._overlay_members.get(old_key, []):
            self._overlay_members[old_key].remove(peer_id)
        self._content_by_host.pop((peer.website, peer.host_id), None)
        directory = self.directory_for(peer.website, peer.locality)
        if directory is not None:
            directory.remove_client(peer_id)
        # Drop the old identity entirely so the peer re-joins as a fresh client
        # of its new locality (Section 5.4: "naturally joins its new overlay").
        self._content_peers.pop(peer_id, None)
        new_peer = self._enroll_content_peer(peer.website, new_locality, peer.host_id)
        if new_peer is None:
            return None
        for object_id in peer.objects:
            new_peer.store_object(object_id)
        self._maybe_push(new_peer)
        return new_peer.peer_id
