"""The Squirrel baseline (Iyer, Rowstron, Druschel — PODC 2002).

Squirrel organises *all* participant peers into a single DHT without any
locality or interest awareness.  The paper compares against Squirrel's
*directory* strategy (Section 6.1): for each requested object, the peer whose
identifier is closest to ``hash(url)`` — the *home node* — keeps a small
directory of pointers to recent downloaders; every query is routed through
the DHT to the home node and then redirected to one of the downloaders.  The
*home-store* strategy (the home node caches the object itself) is provided as
an extension and exercised by an ablation benchmark.

The implementation mirrors :class:`~repro.core.system.FlowerCDN`'s interface
(``bootstrap`` / ``handle_query`` returning a
:class:`~repro.metrics.collectors.QueryRecord`) so both systems can be driven
by the same experiment runner on the same query trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set

from repro.metrics.collectors import MetricsCollector, QueryOutcome, QueryRecord
from repro.network.latency import LatencyModel
from repro.network.topology import Topology
from repro.overlay.chord import ChordRing
from repro.overlay.idspace import IdSpace
from repro.sim.engine import Simulator
from repro.workload.assignment import ResolvedQuery
from repro.workload.catalog import ObjectId


class SquirrelStrategy(Enum):
    """Squirrel's two object-location strategies."""

    DIRECTORY = "directory"
    HOME_STORE = "home_store"


@dataclass(frozen=True)
class SquirrelConfig:
    """Configuration of the Squirrel baseline."""

    id_bits: int = 32
    strategy: SquirrelStrategy = SquirrelStrategy.DIRECTORY
    #: maximum number of downloader pointers kept per object (directory strategy)
    directory_capacity: int = 4
    #: optional bound on a peer's cache; None matches the paper's assumption
    cache_capacity: Optional[int] = None
    metrics_window_s: float = 3600.0
    #: maximum stale pointers tried before falling back to the origin server
    max_redirection_attempts: int = 3

    def __post_init__(self) -> None:
        if not 8 <= self.id_bits <= 160:
            raise ValueError("id_bits must be in [8, 160]")
        if self.directory_capacity <= 0:
            raise ValueError("directory_capacity must be positive")
        if self.cache_capacity is not None and self.cache_capacity <= 0:
            raise ValueError("cache_capacity must be positive or None")
        if self.metrics_window_s <= 0:
            raise ValueError("metrics_window_s must be positive")
        if self.max_redirection_attempts <= 0:
            raise ValueError("max_redirection_attempts must be positive")


@dataclass
class SquirrelPeer:
    """One participant peer of the Squirrel overlay."""

    peer_id: str
    host_id: int
    node_id: int
    cache: Set[ObjectId] = field(default_factory=set)
    alive: bool = True

    def has_object(self, object_id: ObjectId) -> bool:
        return object_id in self.cache

    def store_object(self, object_id: ObjectId) -> None:
        self.cache.add(object_id)


class Squirrel:
    """A simulated Squirrel deployment over a single Chord ring."""

    def __init__(
        self,
        config: SquirrelConfig,
        sim: Simulator,
        topology: Topology,
        latency_model: Optional[LatencyModel] = None,
        compact_metrics: bool = False,
    ) -> None:
        self.config = config
        self.sim = sim
        self.topology = topology
        self.latency = latency_model or LatencyModel(topology)
        self.idspace = IdSpace(config.id_bits)
        self.ring = ChordRing(self.idspace, auto_stabilize=False)
        self.metrics = MetricsCollector(
            window_s=config.metrics_window_s, retain_records=not compact_metrics
        )

        self._peers: Dict[str, SquirrelPeer] = {}
        self._peers_by_host: Dict[int, str] = {}
        self._peers_by_node: Dict[int, str] = {}
        #: object directories, conceptually stored at the object's current home
        #: node.  Keyed by object id: when membership changes move the home
        #: node, this models the key handoff a real DHT performs on join.
        self._directories: Dict[ObjectId, List[str]] = {}
        #: objects replicated at their home node (home-store strategy), with the
        #: same perfect-handoff assumption.
        self._home_store: Set[ObjectId] = set()
        #: memoised object-id -> ring key mapping: ``hash_key`` is a SHA-256
        #: digest per call, and paper-scale replays look the same few thousand
        #: objects up hundreds of thousands of times.  Pure memo — the DHT key
        #: of an object never changes, so draws and routes are unaffected.
        self._object_keys: Dict[ObjectId, int] = {}
        self._bootstrapped = False

    # -- lifecycle ----------------------------------------------------------------

    def bootstrap(self) -> None:
        """Squirrel has no pre-built structure: peers join as clients arrive."""
        self._bootstrapped = True

    @property
    def num_peers(self) -> int:
        return len(self._peers)

    def peer_for_host(self, host_id: int) -> Optional[SquirrelPeer]:
        peer_id = self._peers_by_host.get(host_id)
        return self._peers.get(peer_id) if peer_id else None

    def _join(self, host_id: int) -> SquirrelPeer:
        peer_id = f"sq@{host_id}"
        node_id = self.idspace.hash_key(peer_id)
        # Resolve the (unlikely) identifier collision deterministically.
        while node_id in self.ring or node_id in self._peers_by_node:
            node_id = self.idspace.normalize(node_id + 1)
        self.ring.join(node_id, peer_name=peer_id)
        peer = SquirrelPeer(peer_id=peer_id, host_id=host_id, node_id=node_id)
        self._peers[peer_id] = peer
        self._peers_by_host[host_id] = peer_id
        self._peers_by_node[node_id] = peer_id
        self.latency.register_peer(peer_id, host_id)
        return peer

    # -- helpers -------------------------------------------------------------------

    def _host_latency(self, host_a: int, host_b: int) -> float:
        return self.topology.latency_ms(host_a, host_b)

    def _object_key(self, object_id: ObjectId) -> int:
        key = self._object_keys.get(object_id)
        if key is None:
            key = self.idspace.hash_key(object_id)
            self._object_keys[object_id] = key
        return key

    def _home_node_of(self, object_id: ObjectId) -> Optional[int]:
        return self.ring.successor_of(self._object_key(object_id))

    def _route_latency(self, path: List[int]) -> float:
        if len(path) < 2:
            return 0.0
        # Each interior node is resolved once (not once as src and once as
        # dst), and the lookups are bound locally: this sits on the Squirrel
        # dispatch hot path, once per overlay hop per query.
        peers = self._peers
        by_node = self._peers_by_node
        latency_ms = self.topology.latency_ms
        total = 0.0
        previous_host = peers[by_node[path[0]]].host_id
        for node in path[1:]:
            host = peers[by_node[node]].host_id
            total += latency_ms(previous_host, host)
            previous_host = host
        return total

    # -- query processing -------------------------------------------------------------

    def process_query(
        self,
        query_id: int,
        time: float,
        website: str,
        object_id: ObjectId,
        locality: int,
        client_host: int,
    ) -> tuple:
        """Process one client query given as scalars through the overlay.

        Same contract as :meth:`FlowerCDN.process_query`: records the query
        and returns its outcome row ``(outcome, lookup_latency_ms,
        transfer_distance_ms, overlay_hops, provider, redirection_failures)``.
        """
        if not self._bootstrapped:
            raise RuntimeError("call bootstrap() before handling queries")
        requester = self.peer_for_host(client_host)
        if requester is None:
            requester = self._join(client_host)
        row = self._locate(requester, object_id)
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

    def _locate(self, requester: SquirrelPeer, object_id: ObjectId) -> tuple:
        if requester.has_object(object_id):
            return (QueryOutcome.PEER_HIT, 0.0, 0.0, 0, requester.peer_id, 0)

        # Route through the DHT from the requester to the object's home node.
        path = self.ring.ideal_route(requester.node_id, self._object_key(object_id))
        latency = self._route_latency(path)
        hops = max(0, len(path) - 1)
        home_node = path[-1]
        home_peer = self._peers[self._peers_by_node[home_node]]

        provider, extra_latency, failures = self._locate_at_home(
            home_node, home_peer, object_id
        )
        latency += extra_latency

        if provider is not None:
            distance = self._host_latency(requester.host_id, provider.host_id)
            outcome = QueryOutcome.PEER_HIT
            provider_id = provider.peer_id
        else:
            latency += self.latency.server_latency_ms
            distance = self.latency.server_latency_ms
            outcome = QueryOutcome.SERVER_MISS
            provider_id = None

        self._record_download(home_node, requester, object_id)
        requester.store_object(object_id)
        return (outcome, latency, distance, hops, provider_id, failures)

    def _locate_at_home(
        self, home_node: int, home_peer: SquirrelPeer, object_id: ObjectId
    ) -> tuple[Optional[SquirrelPeer], float, int]:
        """Find a provider using the home node's directory (or its own store)."""
        latency = 0.0
        failures = 0
        if self.config.strategy is SquirrelStrategy.HOME_STORE:
            if object_id in self._home_store:
                # Perfect key handoff: the current home node holds the replica.
                home_peer.store_object(object_id)
                return home_peer, latency, failures
            return None, latency, failures

        pointers = self._directories.get(object_id, [])
        for pointer in list(pointers)[: self.config.max_redirection_attempts]:
            downloader = self._peers.get(pointer)
            if downloader is not None:
                latency += self._host_latency(home_peer.host_id, downloader.host_id)
            if downloader is None or not downloader.alive or not downloader.has_object(object_id):
                pointers.remove(pointer)
                failures += 1
                continue
            return downloader, latency, failures
        return None, latency, failures

    def _record_download(self, home_node: int, requester: SquirrelPeer, object_id: ObjectId) -> None:
        """Register the requester as a recent downloader (or store the object)."""
        if self.config.strategy is SquirrelStrategy.HOME_STORE:
            self._home_store.add(object_id)
            home_peer = self._peers[self._peers_by_node[home_node]]
            home_peer.store_object(object_id)
            return
        directory = self._directories.setdefault(object_id, [])
        if requester.peer_id in directory:
            directory.remove(requester.peer_id)
        directory.insert(0, requester.peer_id)
        del directory[self.config.directory_capacity:]
