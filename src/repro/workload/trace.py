"""Query-trace recording and replay.

Experiments that compare two systems (Flower-CDN vs Squirrel, Figures 6-8)
must feed *exactly the same* query stream to both.  A :class:`QueryTrace`
materialises a generated workload so it can be replayed, saved to disk as
JSON lines and reloaded — useful both for apples-to-apples comparisons and
for regression-testing experiment results.

For paper-scale runs the object representations above are too heavy: half a
million :class:`Query`/:class:`ResolvedQuery` instances cost hundreds of
megabytes.  :class:`QueryTraceArrays` and :class:`ResolvedTraceArrays` hold
the same information as parallel ``array`` columns (a few bytes per query);
a simulated run replays them as scalars (:meth:`ResolvedTraceArrays.replayer`)
and query objects are materialised only on demand.  They are produced
by :meth:`repro.workload.generator.QueryGenerator.generate_trace` and
:meth:`repro.workload.assignment.ClientAssigner.assign_trace`, whose draw
sequences are bit-identical to the object-path equivalents.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.workload.catalog import Website
from repro.workload.generator import Query, QueryGenerator


@dataclass(frozen=True)
class TraceRecord:
    """A serialisable snapshot of one query."""

    query_id: int
    time: float
    website: str
    object_id: str
    locality: int
    prefers_new_client: bool

    @classmethod
    def from_query(cls, query: Query) -> "TraceRecord":
        return cls(
            query_id=query.query_id,
            time=query.time,
            website=query.website,
            object_id=query.object_id,
            locality=query.locality,
            prefers_new_client=query.prefers_new_client,
        )

    def to_query(self) -> Query:
        return Query(
            query_id=self.query_id,
            time=self.time,
            website=self.website,
            object_id=self.object_id,
            locality=self.locality,
            prefers_new_client=self.prefers_new_client,
        )


class QueryTrace:
    """An ordered, replayable sequence of queries."""

    __slots__ = ("_records",)

    def __init__(self, records: Iterable[TraceRecord] = ()) -> None:
        self._records: List[TraceRecord] = sorted(records, key=lambda r: (r.time, r.query_id))

    # -- construction -------------------------------------------------------

    @classmethod
    def record(cls, generator: QueryGenerator, duration_s: float) -> "QueryTrace":
        """Materialise ``duration_s`` seconds of workload from ``generator``."""
        return cls(TraceRecord.from_query(q) for q in generator.generate(duration_s))

    @classmethod
    def record_count(cls, generator: QueryGenerator, count: int) -> "QueryTrace":
        """Materialise exactly ``count`` queries from ``generator``."""
        return cls(TraceRecord.from_query(q) for q in generator.generate_batch(count))

    @classmethod
    def from_queries(cls, queries: Iterable[Query]) -> "QueryTrace":
        return cls(TraceRecord.from_query(q) for q in queries)

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Query]:
        return (record.to_query() for record in self._records)

    def __getitem__(self, index: int) -> Query:
        return self._records[index].to_query()

    def records(self) -> Sequence[TraceRecord]:
        return tuple(self._records)

    @property
    def duration_s(self) -> float:
        if not self._records:
            return 0.0
        return self._records[-1].time - self._records[0].time

    def websites(self) -> Sequence[str]:
        return tuple(sorted({record.website for record in self._records}))

    def localities(self) -> Sequence[int]:
        return tuple(sorted({record.locality for record in self._records}))

    # -- persistence -----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the trace as JSON lines."""
        target = Path(path)
        with target.open("w", encoding="utf-8") as handle:
            for record in self._records:
                handle.write(json.dumps(asdict(record)) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "QueryTrace":
        """Load a trace previously written by :meth:`save`."""
        source = Path(path)
        records: List[TraceRecord] = []
        with source.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                records.append(TraceRecord(**json.loads(line)))
        return cls(records)


# -- array-backed traces (paper-scale fast path) -----------------------------


class QueryTraceArrays:
    """A generated workload held as parallel array columns.

    Column-for-column equivalent to the :class:`Query` stream produced by
    :meth:`QueryGenerator.generate` — ``query(i)`` materialises the identical
    object — but ~20 bytes per query instead of several hundred.
    """

    __slots__ = (
        "websites",
        "first_query_id",
        "times",
        "website_index",
        "object_rank",
        "locality",
        "prefers_new",
    )

    def __init__(
        self,
        websites: Tuple[Website, ...],
        first_query_id: int,
        times: array,
        website_index: array,
        object_rank: array,
        locality: array,
        prefers_new: array,
    ) -> None:
        self.websites = websites
        self.first_query_id = first_query_id
        self.times = times
        self.website_index = website_index
        self.object_rank = object_rank
        self.locality = locality
        self.prefers_new = prefers_new

    def __len__(self) -> int:
        return len(self.times)

    @property
    def nbytes(self) -> int:
        """Bytes held by the columns (diagnostic)."""
        return sum(
            column.itemsize * len(column)
            for column in (
                self.times,
                self.website_index,
                self.object_rank,
                self.locality,
                self.prefers_new,
            )
        )

    def query(self, index: int) -> Query:
        """Materialise the ``index``-th query (identical to the object path)."""
        website = self.websites[self.website_index[index]]
        return Query(
            query_id=self.first_query_id + index,
            time=self.times[index],
            website=website.name,
            object_id=website.object_id(self.object_rank[index]),
            locality=self.locality[index],
            prefers_new_client=bool(self.prefers_new[index]),
        )

    def iter_queries(self) -> Iterator[Query]:
        for index in range(len(self)):
            yield self.query(index)


class ResolvedTraceArrays:
    """A client-assigned workload held as parallel array columns.

    The array counterpart of a ``List[ResolvedQuery]``; built by
    :meth:`repro.workload.assignment.ClientAssigner.assign_trace`.
    """

    __slots__ = (
        "websites",
        "query_id",
        "times",
        "website_index",
        "object_rank",
        "locality",
        "client_host",
        "is_new",
    )

    def __init__(
        self,
        websites: Tuple[Website, ...],
        query_id: array,
        times: array,
        website_index: array,
        object_rank: array,
        locality: array,
        client_host: array,
        is_new: array,
    ) -> None:
        self.websites = websites
        self.query_id = query_id
        self.times = times
        self.website_index = website_index
        self.object_rank = object_rank
        self.locality = locality
        self.client_host = client_host
        self.is_new = is_new

    def __len__(self) -> int:
        return len(self.times)

    @property
    def nbytes(self) -> int:
        """Bytes held by the columns (diagnostic)."""
        return sum(
            column.itemsize * len(column)
            for column in (
                self.query_id,
                self.times,
                self.website_index,
                self.object_rank,
                self.locality,
                self.client_host,
                self.is_new,
            )
        )

    def resolved_query(self, index: int):
        """Materialise the ``index``-th resolved query on demand."""
        from repro.workload.assignment import ResolvedQuery

        website = self.websites[self.website_index[index]]
        return ResolvedQuery(
            query_id=self.query_id[index],
            time=self.times[index],
            website=website.name,
            object_id=website.object_id(self.object_rank[index]),
            locality=self.locality[index],
            client_host=self.client_host[index],
            is_new_client=bool(self.is_new[index]),
        )

    def iter_queries(self) -> Iterator:
        for index in range(len(self)):
            yield self.resolved_query(index)

    def replayer(
        self, process: Callable, positions: Optional[Sequence[int]] = None
    ) -> Callable[[], None]:
        """A zero-argument callback for :meth:`Simulator.schedule_trace`.

        Each invocation passes the next query (in trace order) to ``process``
        as scalars read straight from the columns — ``process(query_id, time,
        website, object_id, locality, client_host)``, the signature of
        ``FlowerCDN.process_query`` / ``Squirrel.process_query`` — so a
        replayed query allocates no object of its own.  ``positions``
        (ascending row indices) replays just those rows, still without
        copying a column: one block of a run cut by website.
        """
        names = [website.name for website in self.websites]
        object_ids = [website.object_ids() for website in self.websites]
        columns = (
            self.query_id,
            self.times,
            self.website_index,
            self.object_rank,
            self.locality,
            self.client_host,
        )
        if positions is None:
            rows = zip(*columns)

            def fire() -> None:
                query_id, time, website, rank, locality, client_host = next(rows)
                process(
                    query_id, time, names[website], object_ids[website][rank], locality, client_host
                )

            return fire

        # Index the shared columns row by row: cheaper than gathering six
        # sub-columns first, whether eagerly or through six lazy iterators.
        query_ids, times, website_index, object_rank, localities, client_hosts = columns
        next_position = iter(positions).__next__

        def fire_at_position() -> None:
            row = next_position()
            website = website_index[row]
            process(
                query_ids[row], times[row], names[website],
                object_ids[website][object_rank[row]], localities[row], client_hosts[row],
            )

        return fire_at_position

    def dispatcher(self, handle: Callable) -> Callable[[], None]:
        """:meth:`replayer` for generic handlers that take a query *object*.

        Each invocation materialises the next :class:`ResolvedQuery` and
        passes it to ``handle`` — an adapter for tests and ad-hoc consumers;
        the simulated runs replay through :meth:`replayer`.
        """
        queries = self.iter_queries()

        def fire() -> None:
            handle(next(queries))

        return fire
