"""The Squirrel baseline (Iyer, Rowstron, Druschel — PODC 2002).

Squirrel organises *all* participant peers into a single DHT without any
locality or interest awareness.  The paper compares against Squirrel's
*directory* strategy (Section 6.1): for each requested object, the peer whose
identifier is closest to ``hash(url)`` — the *home node* — keeps a small
directory of pointers to recent downloaders; every query is routed through
the DHT to the home node and then redirected to one of the downloaders.

The implementation mirrors :class:`~repro.core.system.FlowerCDN`'s interface
(``bootstrap``, ``trace_replay`` for a run, ``process_query`` returning one
query's outcome row, neither recording anything) so both systems can be
driven by the same experiment runner on the same query trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.metrics.collectors import (
    OUTCOME_CODES,
    OutcomeColumns,
    QueryOutcome,
)
from repro.network.latency import LatencyModel
from repro.network.topology import Topology
from repro.overlay.chord import ChordRing
from repro.overlay.idspace import IdSpace
from repro.sim.engine import Simulator
from repro.workload.catalog import ObjectId
from repro.workload.trace import ResolvedTraceArrays


#: identifier length of the Squirrel ring
ID_BITS = 32
#: downloader pointers a home node keeps per object
DIRECTORY_CAPACITY = 4
#: stale pointers tried before falling back to the origin server
MAX_REDIRECTION_ATTEMPTS = 3


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
        sim: Simulator,
        topology: Topology,
        latency_model: Optional[LatencyModel] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.latency = latency_model or LatencyModel(topology)
        self.idspace = IdSpace(ID_BITS)
        self.ring = ChordRing(self.idspace, auto_stabilize=False)

        self._peers: Dict[str, SquirrelPeer] = {}
        self._peers_by_host: Dict[int, str] = {}
        self._peers_by_node: Dict[int, str] = {}
        #: object directories, conceptually stored at the object's current home
        #: node.  Keyed by object id: when membership changes move the home
        #: node, this models the key handoff a real DHT performs on join.
        self._directories: Dict[ObjectId, List[str]] = {}
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
        self, website: str, object_id: ObjectId, locality: int, client_host: int
    ) -> tuple:
        """Process one client query given as scalars through the overlay.

        Same contract as :meth:`FlowerCDN.process_query`: returns the outcome
        row ``(outcome, lookup_latency_ms, transfer_distance_ms, overlay_hops,
        provider, redirection_failures)`` and records it nowhere.  Squirrel
        has no locality notion: ``website`` and ``locality`` only shape the
        call like Flower-CDN's.
        """
        if not self._bootstrapped:
            raise RuntimeError("call bootstrap() before handling queries")
        requester = self.peer_for_host(client_host)
        if requester is None:
            requester = self._join(client_host)
        return self._locate(requester, object_id)

    def trace_replay(
        self, trace: ResolvedTraceArrays, rows: OutcomeColumns
    ) -> Callable[[], None]:
        """The :meth:`Simulator.schedule_trace` callback that answers the
        whole trace, row after row, into ``rows`` at the rows' positions.

        Row for row what :meth:`process_query` computes, without a frame of
        its own: an own-cache hit is answered here (its numbers are the
        zeros a slot starts with), every other row by the same
        :meth:`_locate` call.  The system records nothing: the run's one
        fold (:meth:`~repro.experiments.driver.ExperimentRunner.fold_outcomes`)
        records ``rows``.
        """
        if not self._bootstrapped:
            raise RuntimeError("call bootstrap() before handling queries")
        object_ids = [website.object_ids() for website in trace.websites]
        website_index, object_rank = trace.website_index, trace.object_rank
        client_hosts = trace.client_host
        peer_of_host, peers = self._peers_by_host, self._peers
        join, locate = self._join, self._locate
        outcomes, providers, put = rows.outcomes, rows.providers, rows.put
        peer_hit = OUTCOME_CODES[QueryOutcome.PEER_HIT]
        next_row = iter(range(len(trace))).__next__

        def answer_next_row() -> None:
            row = next_row()
            object_id = object_ids[website_index[row]][object_rank[row]]
            client_host = client_hosts[row]
            peer_id = peer_of_host.get(client_host)
            requester = peers[peer_id] if peer_id is not None else join(client_host)
            if object_id in requester.cache:
                outcomes[row] = peer_hit
                if providers is not None:
                    providers[row] = requester.peer_id
            else:
                put(row, locate(requester, object_id))

        return answer_next_row

    def _locate(self, requester: SquirrelPeer, object_id: ObjectId) -> tuple:
        if requester.has_object(object_id):
            return (QueryOutcome.PEER_HIT, 0.0, 0.0, 0, requester.peer_id, 0)

        # Route through the DHT from the requester to the object's home node,
        # whose directory redirects to a recent downloader: at most
        # MAX_REDIRECTION_ATTEMPTS pointers are tried, each stale one dropped.
        path = self.ring.ideal_route(requester.node_id, self._object_key(object_id))
        latency = self._route_latency(path)
        home_host = self._peers[self._peers_by_node[path[-1]]].host_id
        directory = self._directories.setdefault(object_id, [])
        provider: Optional[SquirrelPeer] = None
        failures = 0
        for pointer in directory[:MAX_REDIRECTION_ATTEMPTS]:
            downloader = self._peers.get(pointer)
            if downloader is not None:
                latency += self._host_latency(home_host, downloader.host_id)
            if downloader is None or not downloader.alive or not downloader.has_object(object_id):
                directory.remove(pointer)
                failures += 1
                continue
            provider = downloader
            break

        if provider is not None:
            distance = self._host_latency(requester.host_id, provider.host_id)
            outcome = QueryOutcome.PEER_HIT
            provider_id = provider.peer_id
        else:
            latency += self.latency.server_latency_ms
            distance = self.latency.server_latency_ms
            outcome = QueryOutcome.SERVER_MISS
            provider_id = None

        # The requester becomes the object's most recent downloader.
        if requester.peer_id in directory:
            directory.remove(requester.peer_id)
        directory.insert(0, requester.peer_id)
        del directory[DIRECTORY_CAPACITY:]
        requester.store_object(object_id)
        return (outcome, latency, distance, max(0, len(path) - 1), provider_id, failures)
