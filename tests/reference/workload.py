"""Per-query reference for the workload layer: the oracle of the trace pipeline.

``QueryGenerator.generate_trace`` and ``ClientAssigner.assign_trace`` batch
every random draw per stream into array columns.  This module draws the same
workload the plain way — one query at a time, through the stdlib calls
(``expovariate``, ``choice``, ``randint``, ``random``, ``shuffle``) and
``ZipfSampler.sample`` — and shares no code with them beyond the catalogue
and the named streams of ``RandomStreams``.  Tests compare queries and
post-call stream states against it.

It covers the stationary workload (no program): a homogeneous program is
checked against a one-span run by the phase tests.

It also holds the object forms of a query — :class:`Query`,
:class:`ResolvedQuery` — with the materialisers that read them off a
trace's columns (:func:`trace_queries`, :func:`resolved_queries`), and
:func:`answer`, which puts one materialised query to a system's one-query
API and keeps the row in a collector the caller owns.  :func:`zipf_masses`
is the analytic popularity law ``ZipfSampler`` draws from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.metrics.collectors import MetricsCollector, QueryRecord
from repro.network.topology import Topology
from repro.sim.rng import RandomStreams
from repro.workload.catalog import Catalog, ObjectId, Website
from repro.workload.generator import NEW_CLIENT_BIAS, WorkloadConfig
from repro.workload.trace import QueryTraceArrays, ResolvedTraceArrays
from repro.workload.zipf import ZipfSampler


@dataclass(frozen=True)
class Query:
    """One client query for an object of a website."""

    query_id: int
    time: float
    website: str
    object_id: ObjectId
    locality: int
    prefers_new_client: bool


@dataclass(frozen=True)
class ResolvedQuery:
    """A query bound to a concrete originating host."""

    query_id: int
    time: float
    website: str
    object_id: ObjectId
    locality: int
    client_host: int
    is_new_client: bool


def trace_queries(trace: QueryTraceArrays) -> List[Query]:
    """Every query of a generated trace, in trace order."""
    queries = []
    for index in range(len(trace)):
        website = trace.websites[trace.website_index[index]]
        queries.append(Query(
            query_id=trace.first_query_id + index,
            time=trace.times[index],
            website=website.name,
            object_id=website.object_id(trace.object_rank[index]),
            locality=trace.locality[index],
            prefers_new_client=bool(trace.prefers_new[index]),
        ))
    return queries


def resolved_queries(trace: ResolvedTraceArrays) -> List[ResolvedQuery]:
    """Every query of a client-assigned trace, in trace order."""
    queries = []
    for index in range(len(trace)):
        website = trace.websites[trace.website_index[index]]
        queries.append(ResolvedQuery(
            query_id=trace.query_id[index],
            time=trace.times[index],
            website=website.name,
            object_id=website.object_id(trace.object_rank[index]),
            locality=trace.locality[index],
            client_host=trace.client_host[index],
            is_new_client=bool(trace.is_new[index]),
        ))
    return queries


def answer(
    system, query: ResolvedQuery, metrics: Optional[MetricsCollector] = None
) -> QueryRecord:
    """``query`` put to ``system.process_query`` (a ``FlowerCDN`` or a
    ``Squirrel``), as a :class:`QueryRecord`; its row is also appended to
    ``metrics`` when one is given."""
    row = system.process_query(query.website, query.object_id, query.locality, query.client_host)
    record = QueryRecord(query.query_id, query.time, query.website, query.locality, *row)
    if metrics is not None:
        metrics.record(record)
    return record


class ReferenceWorkload:
    """Generates the workload one :class:`Query` at a time."""

    def __init__(
        self,
        config: WorkloadConfig,
        streams: RandomStreams,
        catalog: Optional[Catalog] = None,
    ) -> None:
        self.config = config
        self.catalog = catalog or Catalog.synthetic(
            config.num_websites, config.objects_per_website
        )
        self.active: List[Website] = list(self.catalog.websites[: config.active_websites])
        self._samplers: Dict[str, ZipfSampler] = {
            site.name: ZipfSampler(site.num_objects, config.zipf_alpha)
            for site in self.active
        }
        self._next_id = 0
        self._arrival_rng = streams.stream("workload:arrival")
        self._locality_rng = streams.stream("workload:locality")
        self._website_rng = streams.stream("workload:website")
        self._zipf_rng = streams.stream("workload:zipf")
        self._originator_rng = streams.stream("workload:originator")

    @property
    def queries_generated(self) -> int:
        return self._next_id

    def _next_interarrival(self) -> float:
        if self.config.arrival_process == "poisson":
            return self._arrival_rng.expovariate(self.config.query_rate_per_s)
        return 1.0 / self.config.query_rate_per_s

    def _pick_locality(self) -> int:
        weights = self.config.locality_weights
        if not weights:
            return self._locality_rng.randint(0, self.config.num_localities - 1)
        u = self._locality_rng.random()
        total = sum(weights)
        acc = 0.0
        for index, weight in enumerate(weights):
            acc += weight / total
            if u <= acc:
                return index
        return self.config.num_localities - 1

    def _pick_website(self) -> Website:
        return self._website_rng.choice(self.active)

    def _pick_object(self, website: Website) -> ObjectId:
        return website.object_id(self._samplers[website.name].sample(self._zipf_rng))

    def next_query(self, current_time: float) -> Query:
        """The next query; its ``time`` is ``current_time`` + one inter-arrival."""
        website = self._pick_website()
        query = Query(
            query_id=self._next_id,
            time=current_time + self._next_interarrival(),
            website=website.name,
            object_id=self._pick_object(website),
            locality=self._pick_locality(),
            prefers_new_client=self._originator_rng.random() < NEW_CLIENT_BIAS,
        )
        self._next_id += 1
        return query

    def generate(self, duration_s: float, start_time: float = 0.0) -> Iterator[Query]:
        """Every query arriving in ``[start_time, start_time + duration_s)``.

        The query that first crosses the horizon is drawn (and discarded).
        """
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        clock = start_time
        end = start_time + duration_s
        while True:
            query = self.next_query(clock)
            if query.time >= end:
                return
            clock = query.time
            yield query

    def generate_batch(self, count: int, start_time: float = 0.0) -> List[Query]:
        """Exactly ``count`` consecutive queries."""
        if count < 0:
            raise ValueError("count must be non-negative")
        queries: List[Query] = []
        clock = start_time
        for _ in range(count):
            query = self.next_query(clock)
            clock = query.time
            queries.append(query)
        return queries


class ReferenceAssigner:
    """Binds queries to originating hosts one :class:`Query` at a time."""

    def __init__(
        self,
        topology: Topology,
        streams: RandomStreams,
        max_clients_per_overlay: int,
        reserved_hosts: Optional[Set[int]] = None,
    ) -> None:
        self._topology = topology
        self._streams = streams
        self._max_clients = max_clients_per_overlay
        self._reserved = set(reserved_hosts or ())
        self._clients: Dict[Tuple[str, int], List[int]] = {}
        self._available: Dict[Tuple[str, int], List[int]] = {}

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

    def assign(self, query: Query) -> Optional[ResolvedQuery]:
        """Bind ``query`` to a host, or ``None`` when its locality is empty.

        A new client is used when the query prefers one (or the overlay has
        no member yet) and the overlay has room and the locality has unused
        hosts; otherwise an existing client is drawn uniformly.
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
        """Assign every query, dropping the unassignable ones."""
        resolved = []
        for query in queries:
            bound = self.assign(query)
            if bound is not None:
                resolved.append(bound)
        return resolved


def zipf_masses(population_size: int, alpha: float) -> List[float]:
    """Zipf(``alpha``) probability mass of every rank in ``[0, population_size)``."""
    weights = [1.0 / ((rank + 1) ** alpha) for rank in range(population_size)]
    total = sum(weights)
    return [weight / total for weight in weights]
