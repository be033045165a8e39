"""Client assignment: turning abstract queries into queries from concrete hosts.

The generator decides *what* is requested and *from which locality*; this
module decides *who* asks.  Following Section 6.1, each query originates
either from a brand-new client of the website or from an existing content
peer, chosen from the query's locality; new clients stop joining an overlay
once it reached the maximum size ``Sco``.

Keeping this decision outside the CDN systems guarantees that Flower-CDN and
Squirrel process *exactly the same* stream of (host, website, object) events,
which is what the comparative figures require.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.network.topology import Topology
from repro.sim.rng import RandomStreams
from repro.workload.generator import Query


@dataclass(slots=True, unsafe_hash=True)
class ResolvedQuery:
    """A query bound to a concrete originating host.

    Constructed transiently once per dispatched event on the array fast
    path.  Deliberately *not* frozen — a frozen ``__init__`` routes every
    field through ``object.__setattr__``, a measurable dispatch-phase cost;
    ``unsafe_hash`` keeps value-object hashing.  Treat instances as
    immutable.
    """

    query_id: int
    time: float
    website: str
    object_id: str
    locality: int
    client_host: int
    is_new_client: bool


class ClientAssigner:
    """Tracks per-(website, locality) client populations and assigns originators."""

    __slots__ = (
        "_topology",
        "_streams",
        "_max_clients",
        "_reserved",
        "_clients",
        "_available",
    )

    def __init__(
        self,
        topology: Topology,
        streams: RandomStreams,
        max_clients_per_overlay: int,
        reserved_hosts: Set[int] | None = None,
    ) -> None:
        if max_clients_per_overlay <= 0:
            raise ValueError("max_clients_per_overlay must be positive")
        self._topology = topology
        self._streams = streams
        self._max_clients = max_clients_per_overlay
        self._reserved: Set[int] = set(reserved_hosts or ())
        #: hosts already enrolled as clients of a website, per (website, locality)
        self._clients: Dict[Tuple[str, int], List[int]] = {}
        #: hosts of a locality not yet used as a client of a given website
        self._available: Dict[Tuple[str, int], List[int]] = {}

    # -- bookkeeping -----------------------------------------------------------

    def clients_of(self, website: str, locality: int) -> List[int]:
        return list(self._clients.get((website, locality), ()))

    def num_clients(self, website: str, locality: int) -> int:
        return len(self._clients.get((website, locality), ()))

    def overlay_full(self, website: str, locality: int) -> bool:
        return self.num_clients(website, locality) >= self._max_clients

    def total_clients(self) -> int:
        return sum(len(hosts) for hosts in self._clients.values())

    def reserve_host(self, host_id: int) -> None:
        """Mark a host as unavailable for client assignment (e.g. a directory peer)."""
        self._reserved.add(host_id)

    def _candidates(self, website: str, locality: int) -> List[int]:
        key = (website, locality)
        if key not in self._available:
            members = [
                host
                for host in self._topology.hosts_in_locality(locality)
                if host not in self._reserved
            ]
            self._available[key] = self._streams.shuffle(f"assign:{website}:{locality}", members)
        return self._available[key]

    # -- assignment ----------------------------------------------------------------

    def assign(self, query: Query) -> Optional[ResolvedQuery]:
        """Bind ``query`` to an originating host, or ``None`` if nobody can ask it.

        A new client is used when the query prefers one (or when the overlay
        has no member yet) and the overlay still has room and the locality
        still has unused hosts; otherwise an existing client is drawn
        uniformly.  ``None`` is only returned in the degenerate case of an
        empty locality.
        """
        key = (query.website, query.locality)
        existing = self._clients.get(key, [])
        candidates = self._candidates(query.website, query.locality)

        wants_new = query.prefers_new_client or not existing
        can_add_new = bool(candidates) and len(existing) < self._max_clients

        if wants_new and can_add_new:
            host = candidates.pop()
            self._clients.setdefault(key, []).append(host)
        elif existing:
            host = self._streams.choice("assign:existing", existing)
        else:
            return None
        return ResolvedQuery(
            query_id=query.query_id,
            time=query.time,
            website=query.website,
            object_id=query.object_id,
            locality=query.locality,
            client_host=host,
            is_new_client=wants_new and can_add_new,
        )

    def assign_all(self, queries) -> List[ResolvedQuery]:
        """Assign a whole trace, silently dropping unassignable queries."""
        resolved = []
        for query in queries:
            bound = self.assign(query)
            if bound is not None:
                resolved.append(bound)
        return resolved

    def assign_trace(self, trace):
        """Array-path :meth:`assign_all`: columns in, columns out.

        Consumes a :class:`~repro.workload.trace.QueryTraceArrays` and returns
        a :class:`~repro.workload.trace.ResolvedTraceArrays` whose
        materialised queries — and the post-call state of the assignment
        streams — are bit-identical to running :meth:`assign` per query.
        Unless a query had to be dropped, the result shares the input's
        time / website / rank / locality columns instead of copying them.
        """
        from repro.workload.trace import ResolvedTraceArrays

        websites = trace.websites
        clients = self._clients
        max_clients = self._max_clients
        # random.choice(existing), inlined: the _randbelow rejection loop.
        getrandbits = self._streams.stream("assign:existing").getrandbits
        #: (website index, locality) -> (enrolled clients, unused hosts)
        overlays: Dict[Tuple[int, int], Tuple[List[int], List[int]]] = {}
        client_host = array("l")
        is_new = array("b")
        add_host = client_host.append
        add_is_new = is_new.append
        dropped: List[int] = []
        for index, pair in enumerate(zip(trace.website_index, trace.locality)):
            overlay = overlays.get(pair)
            if overlay is None:
                name = websites[pair[0]].name
                overlay = overlays[pair] = (
                    clients.setdefault((name, pair[1]), []),
                    self._candidates(name, pair[1]),
                )
            existing, candidates = overlay
            if (
                (trace.prefers_new[index] or not existing)
                and candidates
                and len(existing) < max_clients
            ):
                host = candidates.pop()
                existing.append(host)
                add_is_new(1)
            elif existing:
                size = len(existing)
                bits = size.bit_length()
                draw = getrandbits(bits)
                while draw >= size:
                    draw = getrandbits(bits)
                host = existing[draw]
                add_is_new(0)
            else:
                dropped.append(index)  # degenerate: empty locality
                continue
            add_host(host)

        first_query_id = trace.first_query_id
        columns = [
            array("L", range(first_query_id, first_query_id + len(trace))),
            trace.times,
            trace.website_index,
            trace.object_rank,
            trace.locality,
        ]
        if dropped:
            gone = set(dropped)
            columns = [
                array(column.typecode, [v for i, v in enumerate(column) if i not in gone])
                for column in columns
            ]
        query_id, times, website_index, object_rank, locality = columns
        return ResolvedTraceArrays(
            websites=websites,
            query_id=query_id,
            times=times,
            website_index=website_index,
            object_rank=object_rank,
            locality=locality,
            client_host=client_host,
            is_new=is_new,
        )
