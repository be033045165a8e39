"""The Flower-CDN system: D-ring + content overlays on the simulation substrate.

:class:`FlowerCDN` wires everything together:

* at bootstrap it places one directory peer per (website, locality) pair on
  the D-ring ("experiments start with a stable D-ring ... with an empty
  directory", Section 6.1) and starts their periodic maintenance;
* :meth:`FlowerCDN.process_query` processes one client query end to end —
  either through the D-ring (new clients, Section 3.4) or inside the client's
  content overlay (existing content peers, Section 4.1) — and records the
  row the evaluation needs (:meth:`FlowerCDN.handle_query` is its object
  adapter, returning a :class:`~repro.metrics.collectors.QueryRecord`);
* content peers created on the way are given periodic gossip and keepalive
  processes (Algorithms 4 and 5), whose traffic is charged to the
  :class:`~repro.metrics.collectors.BandwidthAccountant`;
* directory failures are repaired with the replacement protocol of
  Section 5.2;
* an optional :class:`~repro.network.reachability.ReachabilityModel`
  (attached via :meth:`FlowerCDN.attach_reachability`) gates every protocol
  message — gossip, keepalives, pushes, queries, redirections, D-ring
  summaries, replication — enabling partitions, outages and message loss;
  without one attached every gate site short-circuits on a ``None`` check
  and runs remain byte-identical to the ungated code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import FlowerConfig
from repro.core.content_peer import ContentPeer
from repro.core.directory_peer import DirectoryPeer
from repro.core.dring import DRing
from repro.core.keys import KeyScheme
from repro.metrics.collectors import (
    BandwidthAccountant,
    MetricsCollector,
    QueryOutcome,
    QueryRecord,
)
from repro.network.latency import LatencyModel
from repro.network.reachability import DeliveryStats, ReachabilityModel
from repro.network.topology import Topology
from repro.overlay.pastry import PastryRing
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.workload.assignment import ResolvedQuery
from repro.workload.catalog import Catalog, ObjectId

# Bound once: an enum member read is a metaclass attribute lookup, and the
# query path returns one of these per query.
_LOCAL_HIT = QueryOutcome.LOCAL_OVERLAY_HIT
_SERVER_MISS = QueryOutcome.SERVER_MISS


class InfeasibleScenarioError(RuntimeError):
    """The topology cannot host the directory peers the configuration needs."""

    def __init__(self, locality: int, hosts_available: int, directories_required: int) -> None:
        super().__init__(
            f"infeasible scenario: locality {locality} has {hosts_available} hosts but "
            f"{directories_required} directory peers (one per website) are required; "
            "enlarge the topology, reduce the number of websites or pick another seed"
        )
        self.locality = locality
        self.hosts_available = hosts_available
        self.directories_required = directories_required


def directory_hosts(
    topology: Topology, num_websites: int, num_localities: int
) -> List[Sequence[int]]:
    """Per locality, the hosts its directory peers occupy, in catalogue order.

    The ``i``-th website's directory peer of a locality runs on the
    locality's ``i``-th host: a pure function of the topology, shared by
    :meth:`FlowerCDN.bootstrap` and the trace builder (which keeps those
    hosts out of client assignment without building a system to ask).
    """
    placed: List[Sequence[int]] = []
    for locality in range(num_localities):
        hosts = topology.hosts_in_locality(locality)
        if len(hosts) < num_websites:
            raise InfeasibleScenarioError(locality, len(hosts), num_websites)
        placed.append(hosts[:num_websites])
    return placed


@dataclass
class OverlayStats:
    """Diagnostic snapshot of one content overlay."""

    website: str
    locality: int
    num_content_peers: int
    directory_peer: Optional[str]
    directory_index_size: int
    unique_objects_indexed: int


class FlowerCDN:
    """A complete simulated Flower-CDN deployment."""

    def __init__(
        self,
        config: FlowerConfig,
        sim: Simulator,
        topology: Topology,
        latency_model: Optional[LatencyModel] = None,
        catalog: Optional[Catalog] = None,
        compact_metrics: bool = False,
        owned_websites: Optional[frozenset] = None,
        dring: Optional[DRing] = None,
    ) -> None:
        self.config = config
        #: block support: when set, only these websites get real directory /
        #: content peers and background processes; every other website's
        #: directory is still *placed* (D-ring node, latency entry, reserved
        #: host) so ring routing, bootstrap-node choice and client assignment
        #: match the undivided deployment exactly.  ``None`` owns everything.
        #: ``dring`` is such a placed ring (with ``latency_model`` knowing its
        #: peers), shared read-only by the blocks of a run instead of being
        #: placed again: the bootstrap ring is static while no directory fails.
        self._owned_websites = (
            frozenset(owned_websites) if owned_websites is not None else None
        )
        self.sim = sim
        self.topology = topology
        self.latency = latency_model or LatencyModel(topology)
        self.catalog = catalog or Catalog.synthetic(
            config.num_websites, config.objects_per_website
        )
        self.keys = KeyScheme(config.website_bits, config.locality_bits)
        if config.dht_substrate == "pastry":
            substrate = PastryRing(self.keys.idspace)
        else:
            substrate = None  # DRing defaults to Chord, as in the paper's evaluation
        # Bind the latency oracles once: these run on every lookup hop, and a
        # direct bound method skips an intermediate Python frame per call.
        self._peer_latency = self.latency.latency_ms
        self._host_latency = self.topology.latency_ms
        # Per-query constants, bound once instead of chased through attribute
        # chains in the hottest function (`_content_peer_query`).
        self._max_redirects = config.max_redirection_attempts
        self._server_latency_ms = self.latency.server_latency_ms
        self._directory_fallback = config.content_miss_fallback == "directory"
        self._push_threshold = config.gossip.push_threshold
        self._push_message_bytes = config.message_sizes.push_message_bytes
        # Fixed-size background messages, priced once instead of per tick.
        self._gossip_message_bytes = config.message_sizes.gossip_message_bytes(
            config.summary_bits, config.gossip.gossip_length
        )
        self._keepalive_bytes = config.message_sizes.keepalive_bytes()
        self._summary_refresh_bytes = config.message_sizes.summary_refresh_bytes(
            config.summary_bits
        )
        # Gossip subset draws are scoped per content overlay and bootstrap
        # draws per website: identically-named streams yield identical
        # sequences in any process, which is what makes a space-sharded run
        # reproduce the single-process draw sequences exactly.
        self._gossip_subset_rngs: Dict[Tuple[str, int], random.Random] = {}
        #: optional message-delivery gate (see repro.network.reachability):
        #: when attached, every protocol interaction consults it through
        #: ``_delivery_allowed``; ``None`` keeps runs byte-identical.
        self.reachability: Optional[ReachabilityModel] = None
        #: per-run delivery counters, created on model attachment and kept
        #: after detachment so end-of-run reporting still sees them
        self.delivery_stats: Optional[DeliveryStats] = None
        self._last_reachability: Optional[ReachabilityModel] = None
        #: contact-suspicion backoff state: contact id -> earliest retry time
        self._suspicion_until: Dict[str, float] = {}
        self._suspicion_streak: Dict[str, int] = {}
        self._redirect_timeout_ms = config.redirect_timeout_ms
        self.dring = dring if dring is not None else DRing(
            self.keys, latency_callback=self._peer_latency, ring=substrate
        )
        self.metrics = MetricsCollector(
            window_s=config.metrics_window_s, retain_records=not compact_metrics
        )
        self.bandwidth = BandwidthAccountant(window_s=config.metrics_window_s)

        self._directory_peers: Dict[str, DirectoryPeer] = {}
        self._directory_by_pair: Dict[Tuple[str, int], str] = {}
        self._content_peers: Dict[str, ContentPeer] = {}
        self._overlay_members: Dict[Tuple[str, int], List[str]] = {}
        self._content_by_host: Dict[Tuple[str, int], str] = {}
        self._reserved_hosts: Set[int] = set()
        self._processes: Dict[str, List[PeriodicProcess]] = {}
        self._bootstrapped = False
        #: statistics
        self.directory_replacements = 0

    # ------------------------------------------------------------------ utils

    # `_peer_latency` and `_host_latency` are bound in __init__ directly to
    # the underlying oracles (see above).

    @property
    def reserved_hosts(self) -> Set[int]:
        """Hosts used by directory peers (unavailable for client assignment)."""
        return set(self._reserved_hosts)

    @property
    def num_content_peers(self) -> int:
        return len(self._content_peers)

    @property
    def num_directory_peers(self) -> int:
        return len(self._directory_peers)

    def content_peer(self, peer_id: str) -> Optional[ContentPeer]:
        return self._content_peers.get(peer_id)

    def directory_peer(self, peer_id: str) -> Optional[DirectoryPeer]:
        return self._directory_peers.get(peer_id)

    def directory_for(self, website: str, locality: int) -> Optional[DirectoryPeer]:
        peer_id = self._directory_by_pair.get((website, locality))
        return self._directory_peers.get(peer_id) if peer_id else None

    def overlay_members(self, website: str, locality: int) -> List[str]:
        return list(self._overlay_members.get((website, locality), ()))

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

    def overlay_stats(self, website: str, locality: int) -> OverlayStats:
        directory = self.directory_for(website, locality)
        return OverlayStats(
            website=website,
            locality=locality,
            num_content_peers=len(self._overlay_members.get((website, locality), ())),
            directory_peer=directory.peer_id if directory else None,
            directory_index_size=directory.index_size if directory else 0,
            unique_objects_indexed=len(directory.indexed_objects()) if directory else 0,
        )

    # ------------------------------------------------------------------ reachability

    def attach_reachability(self, model: ReachabilityModel) -> None:
        """Install the message-delivery gate (at most one model per system)."""
        if self.reachability is not None:
            raise RuntimeError("a reachability model is already attached")
        self.reachability = model
        self.delivery_stats = DeliveryStats()

    def detach_reachability(self) -> Optional[ReachabilityModel]:
        """Remove the delivery gate, keeping its stats for end-of-run reports."""
        model = self.reachability
        if model is not None and model.emits_metrics:
            # (A model that reports nothing is let go: it may point back here.)
            self._last_reachability = model
        self.reachability = None
        self._suspicion_until.clear()
        self._suspicion_streak.clear()
        return model

    def _delivery_allowed(
        self,
        kind: str,
        src_host: int,
        dst_host: int,
        src_id: Optional[str] = None,
        dst_id: Optional[str] = None,
    ) -> bool:
        """Consult the attached model for one message (callers ensure it is set)."""
        stats = self.delivery_stats
        if self.reachability.allows(kind, src_host, dst_host, src_id, dst_id, self.sim.now):
            stats.count_delivered(kind)
            return True
        stats.count_blocked(kind)
        return False

    def _suspect(self, contact: str, now: float) -> None:
        """Back off from a contact that timed out: doubling suspicion window."""
        streak = self._suspicion_streak.get(contact, 0) + 1
        self._suspicion_streak[contact] = streak
        backoff = min(
            self.config.suspicion_backoff_s * (2 ** (streak - 1)),
            self.config.suspicion_backoff_max_s,
        )
        self._suspicion_until[contact] = now + backoff

    def _clear_suspicion(self, contact: str) -> None:
        self._suspicion_until.pop(contact, None)
        self._suspicion_streak.pop(contact, None)

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
        if self.delivery_stats is not None:
            self.delivery_stats.reconciliations += 1
        self._suspicion_until.clear()
        self._suspicion_streak.clear()
        affected = None if localities is None else set(localities)
        for peer_id in self.alive_content_peer_ids():
            peer = self._content_peers[peer_id]
            if affected is not None and peer.locality not in affected:
                continue
            directory = self._current_directory(peer.website, peer.locality, detector=peer)
            if directory is None:
                continue
            if self.reachability is not None and not self._delivery_allowed(
                "keepalive", peer.host_id, directory.host_id, peer.peer_id, directory.peer_id
            ):
                continue
            directory.handle_keepalive(peer.peer_id)
            self.bandwidth.record_message(
                self.sim.now, peer.peer_id, directory.peer_id, self._keepalive_bytes, "keepalive"
            )
            if peer._pending_added or peer._pending_removed:
                if self.reachability is not None and not self._delivery_allowed(
                    "push", peer.host_id, directory.host_id, peer.peer_id, directory.peer_id
                ):
                    continue
                self._push(peer, directory)
        for website, locality in self.active_directory_pairs():
            if affected is not None and locality not in affected:
                continue
            directory = self.directory_for(website, locality)
            if directory is None or not directory.alive:
                continue
            self._publish_summary(directory)

    def resilience_windows(self) -> Optional[Tuple[Tuple[float, float], ...]]:
        """The fault episodes the ``resilience_*`` block is computed over
        (``None``: no block) — a pure function of the clock."""
        model = self.reachability or self._last_reachability
        if model is None or self.delivery_stats is None or not model.emits_metrics:
            return None
        return tuple(model.fault_windows())

    # ------------------------------------------------------------------ bootstrap

    def bootstrap(self) -> None:
        """Create the stable D-ring: one directory peer per (website, locality)."""
        if self._bootstrapped:
            raise RuntimeError("FlowerCDN.bootstrap() may only be called once")
        self._bootstrapped = True
        num_localities = self.config.num_localities
        hosts = directory_hosts(self.topology, len(self.catalog), num_localities)
        ring, owned = self.dring.ring, self._owned_websites
        place = not self.dring.size  # a shared ring arrives placed
        # Batch the initial joins: stabilise the D-ring once at the end instead
        # of after every single directory peer (equivalent result, much cheaper).
        if place:
            ring.auto_stabilize = False
        try:
            for index, website in enumerate(self.catalog):
                for locality in range(num_localities):
                    host_id = hosts[locality][index]
                    self._reserved_hosts.add(host_id)
                    if place:
                        peer_id = f"d({website.name},{locality})#0"
                        self.latency.register_peer(peer_id, host_id)
                        self.dring.register_directory(website.name, locality, peer_id)
                    if owned is None or website.name in owned:
                        self._staff_directory(website.name, locality, host_id)
        finally:
            if place:
                ring.auto_stabilize = True
                ring.stabilize()

    def _staff_directory(self, website: str, locality: int, host_id: int) -> None:
        """Run the generation-0 directory peer of an already placed position."""
        placement = self.dring.placement_for(website, locality)
        directory = DirectoryPeer(
            peer_id=placement.peer_id,
            host_id=host_id,
            website=website,
            locality=locality,
            node_id=placement.node_id,
            config=self.config,
        )
        self._directory_peers[placement.peer_id] = directory
        self._directory_by_pair[(website, locality)] = placement.peer_id
        self._start_directory_process(directory)

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

    # ------------------------------------------------------------------ query processing

    def process_query(
        self,
        query_id: int,
        time: float,
        website: str,
        object_id: ObjectId,
        locality: int,
        client_host: int,
    ) -> tuple:
        """Process one client query given as scalars and record its metrics.

        The one query path: the trace replay calls it straight from the trace
        columns.  Returns the outcome row it recorded — ``(outcome,
        lookup_latency_ms, transfer_distance_ms, overlay_hops, provider,
        redirection_failures)``, the trailing fields of a
        :class:`~repro.metrics.collectors.QueryRecord`.
        """
        if not self._bootstrapped:
            raise RuntimeError("call bootstrap() before handling queries")
        existing_id = self._content_by_host.get((website, client_host))
        peer = self._content_peers.get(existing_id) if existing_id is not None else None
        if peer is not None:
            row = self._content_peer_query(peer, website, object_id, locality)
        else:
            row = self._new_client_query(website, object_id, locality, client_host)
        self.metrics.record_row(query_id, time, website, locality, *row)
        return row

    def handle_query(self, query: ResolvedQuery) -> QueryRecord:
        """Object adapter over :meth:`process_query` (same path, same row)."""
        row = self.process_query(
            query.query_id,
            query.time,
            query.website,
            query.object_id,
            query.locality,
            query.client_host,
        )
        return QueryRecord(query.query_id, query.time, query.website, query.locality, *row)

    # -- existing content peers (Section 4.1) -----------------------------------------

    def _content_peer_query(
        self, peer: ContentPeer, website: str, object_id: ObjectId, locality: int
    ) -> tuple:
        # Direct set membership: has_object() costs a Python frame per probe
        # and this is the single hottest branch of the whole simulation.
        if object_id in peer._objects:
            return (_LOCAL_HIT, 0.0, 0.0, 0, peer.peer_id, 0)

        latency = 0.0
        failures = 0
        host_latency = self._host_latency
        peer_host = peer.host_id
        candidates = peer.resolve_locally(object_id)
        reach = self.reachability
        blocked_attempts = 0
        if reach is None:
            # Ungated fast path: byte-identical to the pre-reachability code.
            for contact in candidates[: self._max_redirects]:
                provider = self._content_peers.get(contact)
                latency += host_latency(peer_host, self._host_of_contact(contact, peer))
                if provider is None or not provider.alive:
                    peer.forget_contact(contact)
                    failures += 1
                    continue
                if object_id not in provider._objects:
                    # Stale or false-positive summary: a redirection failure.
                    failures += 1
                    continue
                distance = host_latency(peer_host, provider.host_id)
                self._after_served(peer, object_id)
                return (_LOCAL_HIT, latency, distance, 0, provider.peer_id, failures)
        else:
            # Gated retry loop: per-attempt timeout on unreachable providers
            # and suspicion backoff, still bounded by max_redirection_attempts.
            now = self.sim.now
            stats = self.delivery_stats
            attempts = 0
            for contact in candidates:
                if attempts >= self._max_redirects:
                    break
                not_before = self._suspicion_until.get(contact)
                if not_before is not None and now < not_before:
                    # Suspected-unreachable contact: skip without spending an
                    # attempt, the next candidate is tried instead.
                    stats.suspicion_skips += 1
                    continue
                attempts += 1
                target_host = self._host_of_contact(contact, peer)
                if not self._delivery_allowed(
                    "redirect", peer_host, target_host, peer.peer_id, contact
                ):
                    # The redirected request times out in transit: the peer
                    # pays the timeout, suspects the contact, and retries.
                    latency += self._redirect_timeout_ms
                    failures += 1
                    blocked_attempts += 1
                    self._suspect(contact, now)
                    continue
                provider = self._content_peers.get(contact)
                latency += host_latency(peer_host, target_host)
                if provider is None or not provider.alive:
                    peer.forget_contact(contact)
                    failures += 1
                    continue
                if object_id not in provider._objects:
                    failures += 1
                    continue
                self._clear_suspicion(contact)
                distance = host_latency(peer_host, provider.host_id)
                self._after_served(peer, object_id)
                return (_LOCAL_HIT, latency, distance, 0, provider.peer_id, failures)

        if self._directory_fallback:
            directory = self._current_directory(website, locality, peer)
            if directory is not None:
                if reach is not None and not self._delivery_allowed(
                    "query", peer_host, directory.host_id, peer.peer_id, directory.peer_id
                ):
                    # Graceful degradation: the directory is alive but
                    # unreachable, so the peer times out and falls back to
                    # the origin server instead of declaring it failed.
                    self.delivery_stats.server_fallbacks += 1
                    latency += self._redirect_timeout_ms
                else:
                    latency += host_latency(peer_host, directory.host_id)
                    outcome, provider_id, provider_host, flow_latency, flow_failures = (
                        self._run_directory_flow(directory, object_id, locality)
                    )
                    self._after_served(peer, object_id)
                    distance = (
                        host_latency(peer_host, provider_host)
                        if provider_host is not None
                        else self._server_latency_ms
                    )
                    return (
                        outcome, latency + flow_latency, distance, 0, provider_id,
                        failures + flow_failures,
                    )

        # Fall back to the origin web server.
        if reach is not None and blocked_attempts:
            self.delivery_stats.retries_exhausted += 1
        latency += self._server_latency_ms
        self._after_served(peer, object_id)
        return (_SERVER_MISS, latency, self._server_latency_ms, 0, None, failures)

    def _host_of_contact(self, contact: str, fallback: ContentPeer) -> int:
        provider = self._content_peers.get(contact)
        if provider is not None:
            return provider.host_id
        if self.latency.is_registered(contact):
            return self.latency.host_of(contact)
        return fallback.host_id

    # -- new clients (Section 3.4) ----------------------------------------------------

    def _new_client_query(
        self, website: str, object_id: ObjectId, locality: int, client_host: int
    ) -> tuple:
        rng = self.sim.streams.stream(f"dring:bootstrap:{website}")

        # 1. The query enters the D-ring at a bootstrap node and is routed to
        #    the directory peer in charge of (website, locality).
        bootstrap_node = self.dring.random_bootstrap_node(rng)
        latency = 0.0
        hops = 0
        serving_directory: Optional[DirectoryPeer] = None
        reach = self.reachability
        if bootstrap_node is not None:
            bootstrap_placement = self.dring.placement_at(bootstrap_node)
            bootstrap_blocked = False
            if bootstrap_placement is not None:
                bootstrap_host = self.latency.host_of(bootstrap_placement.peer_id)
                if reach is not None and not self._delivery_allowed(
                    "query", client_host, bootstrap_host, None, bootstrap_placement.peer_id
                ):
                    # The D-ring entry point is unreachable: the new client
                    # times out and degrades to the origin server directly.
                    latency += self._redirect_timeout_ms
                    self.delivery_stats.server_fallbacks += 1
                    bootstrap_blocked = True
                else:
                    latency += self._host_latency(client_host, bootstrap_host)
            if not bootstrap_blocked:
                placement, route = self.dring.resolve_directory(
                    website, locality, start_node_id=bootstrap_node
                )
                latency += route.latency_ms
                hops = route.hops
                if placement is not None:
                    serving_directory = self._directory_peers.get(placement.peer_id)

        # 2. Algorithm 3 at the delivering directory peer.
        if serving_directory is not None and serving_directory.alive:
            if reach is not None and not self._delivery_allowed(
                "query",
                client_host,
                serving_directory.host_id,
                None,
                serving_directory.peer_id,
            ):
                # The serving directory is alive but unreachable: time out
                # and degrade to the origin server (no replacement protocol).
                latency += self._redirect_timeout_ms
                self.delivery_stats.server_fallbacks += 1
                outcome = _SERVER_MISS
                provider = None
                provider_host = None
                failures = 0
                latency += self.latency.server_latency_ms
            else:
                outcome, provider, provider_host, flow_latency, failures = (
                    self._run_directory_flow(serving_directory, object_id, locality)
                )
                latency += flow_latency
        else:
            outcome = _SERVER_MISS
            provider = None
            provider_host = None
            failures = 0
            latency += self.latency.server_latency_ms

        distance = (
            self._host_latency(client_host, provider_host)
            if provider_host is not None
            else self.latency.server_latency_ms
        )

        # 3. The client joins its content overlay as a content peer.
        new_peer = self._enroll_content_peer(website, locality, client_host)
        if new_peer is not None:
            new_peer.store_object(object_id)
            self._register_with_directory(new_peer, object_id)
            self._initialize_view(new_peer, provider)

        return (outcome, latency, distance, hops, provider, failures)

    def _run_directory_flow(
        self, start: DirectoryPeer, object_id: ObjectId, query_locality: int
    ) -> tuple:
        """Run Algorithm 3, possibly crossing to neighbouring directory peers.

        Returns ``(outcome, provider, provider_host, latency_ms, failures)``.
        """
        latency = 0.0
        failures = 0
        #: directories visited and providers tried: no retry selects them again
        excluded: Set[str] = set()
        current = start
        host_latency = self._host_latency
        for _ in range(self._max_redirects + len(self._directory_by_pair)):
            excluded.add(current.peer_id)
            kind, target = current.redirect(object_id, excluded)
            if kind == "content_peer":
                provider = self._content_peers.get(target)
                target_host = (
                    provider.host_id if provider is not None else current.host_id
                )
                if self.reachability is not None and not self._delivery_allowed(
                    "redirect", current.host_id, target_host, current.peer_id, target
                ):
                    # Timed-out redirection: the entry is not known stale, so
                    # it is kept (no remove_client) and the next candidate is
                    # tried within the same attempt budget.
                    latency += self._redirect_timeout_ms
                    excluded.add(target)
                    failures += 1
                    continue
                latency += host_latency(current.host_id, target_host)
                if provider is None or not provider.alive or object_id not in provider._objects:
                    # Redirection failure: drop the stale entry and retry.
                    current.remove_client(target)
                    excluded.add(target)
                    failures += 1
                    continue
                outcome = (
                    _LOCAL_HIT
                    if provider.locality == query_locality
                    else QueryOutcome.REMOTE_OVERLAY_HIT
                )
                return (outcome, provider.peer_id, provider.host_id, latency, failures)
            if kind == "directory_peer":
                next_directory = self._directory_peers.get(target)
                if next_directory is None or not next_directory.alive:
                    failures += 1
                    current.drop_neighbor(target)
                    continue
                if self.reachability is not None and not self._delivery_allowed(
                    "dring",
                    current.host_id,
                    next_directory.host_id,
                    current.peer_id,
                    next_directory.peer_id,
                ):
                    # The neighbour is alive but unreachable: do not drop it
                    # (that would mis-trigger Section 5.2 repair); mark it
                    # visited so this query stops re-selecting it.
                    latency += self._redirect_timeout_ms
                    failures += 1
                    excluded.add(target)
                    continue
                latency += host_latency(current.host_id, next_directory.host_id)
                current = next_directory
                continue
            break

        return (_SERVER_MISS, None, None, latency + self._server_latency_ms, failures)

    # ------------------------------------------------------------------ membership

    def _enroll_content_peer(
        self, website: str, locality: int, host_id: int
    ) -> Optional[ContentPeer]:
        key = (website, locality)
        members = self._overlay_members.setdefault(key, [])
        if len(members) >= self.config.max_content_overlay_size:
            return None
        peer_id = f"c({website})@{host_id}"
        if peer_id in self._content_peers:
            return self._content_peers[peer_id]
        peer = ContentPeer(
            peer_id=peer_id,
            host_id=host_id,
            website=website,
            locality=locality,
            config=self.config,
        )
        directory_id = self._directory_by_pair.get(key)
        if directory_id is not None:
            peer.note_directory(directory_id)
        self._content_peers[peer_id] = peer
        self._content_by_host[(website, host_id)] = peer_id
        members.append(peer_id)
        self.latency.register_peer(peer_id, host_id)
        self.bandwidth.observe_peer(self.sim.now, peer_id)
        self._start_content_processes(peer)
        return peer

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

    def _register_with_directory(self, peer: ContentPeer, object_id: ObjectId) -> None:
        directory = self._current_directory(peer.website, peer.locality, peer)
        if directory is None:
            return
        directory.register_client(peer.peer_id, object_id)
        peer.note_directory(directory.peer_id)

    def _initialize_view(self, peer: ContentPeer, provider_id: Optional[str]) -> None:
        """Section 4.2: seed the new peer's view from its serving peer or directory."""
        provider = self._content_peers.get(provider_id) if provider_id else None
        if (
            provider is not None
            and provider.website == peer.website
            and provider.locality == peer.locality
        ):
            peer.seed_view_from(provider)
            return
        directory = self.directory_for(peer.website, peer.locality)
        if directory is None:
            return
        # The index lists up to Sco members and the view keeps view_size of them.
        peer.initialize_view(
            directory.member_columns(self.config.gossip.view_size, exclude=peer.peer_id)
        )

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

    # ------------------------------------------------------------------ maintenance

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
            if partner is None or not partner.alive:
                peer.forget_contact(partner_id)
            elif self.reachability is not None and not self._delivery_allowed(
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

    def _maybe_push(self, peer: ContentPeer) -> None:
        """Algorithm 5: push the delta list once the change threshold is reached."""
        # Inlined needs_push(): this guard runs after every served object, and
        # the two extra Python frames measurably slow the query hot path.
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
        if directory is None:
            return
        if self.reachability is not None and not self._delivery_allowed(
            "push", peer.host_id, directory.host_id, peer.peer_id, directory.peer_id
        ):
            # The push is deferred: pending changes keep accumulating and the
            # next threshold crossing (or post-heal reconcile) retries.
            return
        self._push(peer, directory)

    def _push(self, peer: ContentPeer, directory: DirectoryPeer) -> None:
        """Algorithm 5's message as a call: the delta list leaves ``peer`` and is
        applied at ``directory`` (``build_push`` / ``handle_push`` without the message)."""
        added, removed = peer.take_delta()
        directory.apply_delta(peer.peer_id, added, removed)
        peer.note_directory(directory.peer_id)
        size = self._push_message_bytes(len(added) + len(removed))
        self.bandwidth.record_message(self.sim.now, peer.peer_id, directory.peer_id, size, "push")

    def _keepalive_tick(self, peer: ContentPeer) -> None:
        if not peer.alive:
            return
        directory = self._current_directory(peer.website, peer.locality, detector=peer)
        if directory is None:
            return
        if self.reachability is not None and not self._delivery_allowed(
            "keepalive", peer.host_id, directory.host_id, peer.peer_id, directory.peer_id
        ):
            # Lost keepalive: the directory's ageing continues and may evict
            # this peer's entries until the network heals.
            return
        directory.handle_keepalive(peer.peer_id)
        size = self._keepalive_bytes
        self.bandwidth.record_message(
            self.sim.now, peer.peer_id, directory.peer_id, size, "keepalive"
        )

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
        for neighbor_placement in self.dring.neighbors_of(directory.website, directory.locality):
            neighbor = self._directory_peers.get(neighbor_placement.peer_id)
            if neighbor is None or not neighbor.alive:
                continue
            if self.reachability is not None and not self._delivery_allowed(
                "summary", directory.host_id, neighbor.host_id, directory.peer_id, neighbor.peer_id
            ):
                continue
            neighbor.store_neighbor_summary(directory.peer_id, summary.copy())
            self.bandwidth.record_message(
                self.sim.now, directory.peer_id, neighbor.peer_id, size, "summary"
            )

    def _after_served(self, peer: ContentPeer, object_id: ObjectId) -> None:
        """Progressive replication: the requester keeps the object it was served."""
        peer.store_object(object_id)
        self._maybe_push(peer)

    # ------------------------------------------------------------------ churn API

    def fail_content_peer(self, peer_id: str) -> bool:
        """Abruptly fail a content peer (used by the churn injector)."""
        peer = self._content_peers.get(peer_id)
        if peer is None or not peer.alive:
            return False
        peer.fail()
        for process in self._processes.pop(peer_id, []):
            process.stop()
        return True

    def fail_directory(self, website: str, locality: int) -> bool:
        """Abruptly fail the directory peer of (website, locality)."""
        directory = self.directory_for(website, locality)
        if directory is None or not directory.alive:
            return False
        directory.fail()
        for process in self._processes.pop(directory.peer_id, []):
            process.stop()
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
        for process in self._processes.pop(directory.peer_id, []):
            process.stop()
        self.dring.remove_directory(website, locality, failed=False)
        if not members:
            return None
        successor = max(members, key=lambda p: p.num_objects)
        replacement = self._replace_directory(website, locality, successor)
        if replacement is not None:
            replacement.import_state(state)
            return replacement.peer_id
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

    def shutdown(self) -> None:
        """Stop every background process (the end of a run).

        Peers, directories, metrics and bandwidth stay readable; only the
        periodic gossip / keepalive / directory ticks go.
        """
        for processes in self._processes.values():
            for process in processes:
                process.stop()
        self._processes.clear()

    # ------------------------------------------------------------------ reporting

    def active_overlays(self) -> List[OverlayStats]:
        return [
            self.overlay_stats(website, locality)
            for (website, locality) in sorted(self._overlay_members)
        ]
