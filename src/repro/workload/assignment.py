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
from typing import Dict, List, Set, Tuple

from repro.network.topology import Topology
from repro.sim.rng import RandomStreams


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

    def assign_trace(self, trace):
        """Bind every query of a trace to an originating host: columns in, columns out.

        Consumes a :class:`~repro.workload.trace.QueryTraceArrays` and returns
        a :class:`~repro.workload.trace.ResolvedTraceArrays`.  A new client is
        used when the query prefers one (or when the overlay has no member
        yet) and the overlay still has room and the locality still has
        unused hosts; otherwise an existing client is drawn uniformly.  A
        query nobody can ask (an empty locality) is dropped.  Unless a query
        had to be dropped, the result shares the input's time / website /
        rank / locality columns instead of copying them.
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
