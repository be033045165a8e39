"""The Flower-CDN system: D-ring + content overlays on the simulation substrate.

:class:`FlowerCDN` wires everything together and answers queries; the
upkeep that keeps its overlays alive is its base class,
:class:`~repro.core.maintenance.OverlayMaintenance`:

* at bootstrap it places one directory peer per (website, locality) pair on
  the D-ring ("experiments start with a stable D-ring ... with an empty
  directory", Section 6.1) and starts their periodic maintenance;
* :meth:`FlowerCDN.process_query` processes one client query end to end —
  either through the D-ring (new clients, Section 3.4) or inside the client's
  content overlay (existing content peers, Section 4.1) — and records the
  row the evaluation needs (:meth:`FlowerCDN.handle_query` is its object
  adapter, returning a :class:`~repro.metrics.collectors.QueryRecord`);
* content peers created on the way are enrolled in their overlay and given
  the periodic gossip and keepalive processes of Algorithms 4 and 5;
* an optional :class:`~repro.network.reachability.ReachabilityModel`
  (attached via :meth:`FlowerCDN.attach_reachability`) gates every protocol
  message — gossip, keepalives, pushes, queries, redirections, D-ring
  summaries, replication — through the system's ``gate``, enabling
  partitions, outages and message loss; without one attached ``gate`` is
  ``None`` and runs remain byte-identical to the ungated code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.config import FlowerConfig
from repro.core.content_peer import ContentPeer
from repro.core.directory_peer import DirectoryPeer
from repro.core.dring import DRing
from repro.core.keys import KeyScheme
from repro.core.maintenance import OverlayMaintenance
from repro.metrics.collectors import (
    BandwidthAccountant,
    MetricsCollector,
    QueryOutcome,
    QueryRecord,
)
from repro.network.latency import LatencyModel
from repro.network.reachability import DeliveryGate, DeliveryStats, ReachabilityModel
from repro.network.topology import Topology
from repro.overlay.pastry import PastryRing
from repro.sim.engine import Simulator
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


class FlowerCDN(OverlayMaintenance):
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
        super().__init__(config, sim)
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
        #: Algorithm 3's retry bound: the redirect budget plus one visit per
        #: directory of the deployment — whichever block of it this system staffs
        self._flow_bound = self._max_redirects + len(self.catalog) * config.num_localities
        self._server_latency_ms = self.latency.server_latency_ms
        self._directory_fallback = config.content_miss_fallback == "directory"
        self.dring = dring if dring is not None else DRing(
            self.keys, latency_callback=self._peer_latency, ring=substrate
        )
        self.metrics = MetricsCollector(
            window_s=config.metrics_window_s, retain_records=not compact_metrics
        )
        self.bandwidth = BandwidthAccountant(window_s=config.metrics_window_s)
        self._reserved_hosts: Set[int] = set()
        self._bootstrapped = False

    # ------------------------------------------------------------------ utils

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

    def overlay_members(self, website: str, locality: int) -> List[str]:
        return list(self._overlay_members.get((website, locality), ()))

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

    @property
    def reachability(self) -> Optional[ReachabilityModel]:
        """The attached delivery model (``None``: every message is delivered)."""
        return None if self.gate is None else self.gate.model

    @property
    def delivery_stats(self) -> Optional[DeliveryStats]:
        """The last attached gate's counters, kept after detachment."""
        return None if self._last_gate is None else self._last_gate.stats

    def attach_reachability(self, model: ReachabilityModel) -> None:
        """Install the message-delivery gate (at most one model per system)."""
        if self.gate is not None:
            raise RuntimeError("a reachability model is already attached")
        self.gate = self._last_gate = DeliveryGate(model, self.sim, self.config)

    def detach_reachability(self) -> Optional[ReachabilityModel]:
        """Remove the delivery gate, keeping it for end-of-run reports."""
        gate, self.gate = self.gate, None
        return None if gate is None else gate.model

    def resilience_windows(self) -> Optional[Tuple[Tuple[float, float], ...]]:
        """The fault episodes the ``resilience_*`` block is computed over
        (``None``: no block) — a pure function of the clock."""
        return None if self._last_gate is None else self._last_gate.fault_windows()

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
        gate = self.gate
        attempts = self._max_redirects
        blocked_attempts = 0
        # At most max_redirection_attempts tries; under a gate a contact in
        # suspicion backoff is skipped without spending one.
        for contact in candidates:
            if not attempts:
                break
            if gate is not None and gate.skips(contact):
                continue
            attempts -= 1
            target_host = self._host_of_contact(contact, peer)
            if gate is not None and not gate.delivers(
                "redirect", peer_host, target_host, peer.peer_id, contact
            ):
                # The redirected request times out in transit: the peer
                # pays the timeout, suspects the contact, and retries.
                latency += gate.redirect_timeout_ms
                failures += 1
                blocked_attempts += 1
                gate.suspect(contact)
                continue
            latency += host_latency(peer_host, target_host)
            provider = self._content_peers.get(contact)
            if provider is None or not provider.alive:
                peer.forget_contact(contact)
                failures += 1
                continue
            if object_id not in provider._objects:
                # Stale or false-positive summary: a redirection failure.
                failures += 1
                continue
            if gate is not None:
                gate.clear_suspicion(contact)
            distance = host_latency(peer_host, provider.host_id)
            self._after_served(peer, object_id)
            return (_LOCAL_HIT, latency, distance, 0, provider.peer_id, failures)

        if self._directory_fallback:
            directory = self._current_directory(website, locality, peer)
            if directory is not None:
                if gate is not None and not gate.delivers(
                    "query", peer_host, directory.host_id, peer.peer_id, directory.peer_id
                ):
                    # Graceful degradation: the directory is alive but
                    # unreachable, so the peer times out and falls back to
                    # the origin server instead of declaring it failed.
                    latency += gate.fall_back()
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
        if gate is not None and blocked_attempts:
            gate.stats.retries_exhausted += 1
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

    def _after_served(self, peer: ContentPeer, object_id: ObjectId) -> None:
        """Progressive replication: the requester keeps the object it was served."""
        peer.store_object(object_id)
        self._maybe_push(peer)

    # -- new clients (Section 3.4) ----------------------------------------------------

    def _new_client_query(
        self, website: str, object_id: ObjectId, locality: int, client_host: int
    ) -> tuple:
        rng = self.sim.streams.stream(f"dring:bootstrap:{website}")
        gate = self.gate
        latency = 0.0
        hops = 0
        directory: Optional[DirectoryPeer] = None

        # 1. The query enters the D-ring at a bootstrap node and is routed to
        #    the directory peer in charge of (website, locality).
        bootstrap_node = self.dring.random_bootstrap_node(rng)
        if bootstrap_node is not None:
            reached = True
            entry = self.dring.placement_at(bootstrap_node)
            if entry is not None:
                entry_host = self.latency.host_of(entry.peer_id)
                if gate is not None and not gate.delivers(
                    "query", client_host, entry_host, None, entry.peer_id
                ):
                    # The D-ring entry point is unreachable: the new client
                    # times out and degrades to the origin server directly.
                    latency += gate.fall_back()
                    reached = False
                else:
                    latency += self._host_latency(client_host, entry_host)
            if reached:
                placement, route = self.dring.resolve_directory(
                    website, locality, start_node_id=bootstrap_node
                )
                latency += route.latency_ms
                hops = route.hops
                if placement is not None:
                    directory = self._directory_peers.get(placement.peer_id)

        # 2. Algorithm 3 at the delivering directory peer.  One that is dead,
        #    or alive but unreachable (a timeout, no replacement protocol),
        #    leaves the query to the origin server.
        if directory is not None and not directory.alive:
            directory = None
        if directory is not None and gate is not None and not gate.delivers(
            "query", client_host, directory.host_id, None, directory.peer_id
        ):
            latency += gate.fall_back()
            directory = None
        provider: Optional[str] = None
        provider_host: Optional[int] = None
        if directory is None:
            outcome, failures = _SERVER_MISS, 0
            latency += self._server_latency_ms
        else:
            outcome, provider, provider_host, flow_latency, failures = (
                self._run_directory_flow(directory, object_id, locality)
            )
            latency += flow_latency
        distance = (
            self._host_latency(client_host, provider_host)
            if provider_host is not None
            else self._server_latency_ms
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
        gate = self.gate
        for _ in range(self._flow_bound):
            excluded.add(current.peer_id)
            kind, target = current.redirect(object_id, excluded)
            if kind == "content_peer":
                provider = self._content_peers.get(target)
                target_host = (
                    provider.host_id if provider is not None else current.host_id
                )
                if gate is not None and not gate.delivers(
                    "redirect", current.host_id, target_host, current.peer_id, target
                ):
                    # Timed-out redirection: the entry is not known stale, so
                    # it is kept (no remove_client) and the next candidate is
                    # tried within the same attempt budget.
                    latency += gate.redirect_timeout_ms
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
                if gate is not None and not gate.delivers(
                    "dring",
                    current.host_id,
                    next_directory.host_id,
                    current.peer_id,
                    next_directory.peer_id,
                ):
                    # The neighbour is alive but unreachable: do not drop it
                    # (that would mis-trigger Section 5.2 repair); mark it
                    # visited so this query stops re-selecting it.
                    latency += gate.redirect_timeout_ms
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

    # ------------------------------------------------------------------ reporting

    def active_overlays(self) -> List[OverlayStats]:
        return [
            self.overlay_stats(website, locality)
            for (website, locality) in sorted(self._overlay_members)
        ]
