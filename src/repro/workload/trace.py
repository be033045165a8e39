"""Query traces as array columns.

Experiments that compare two systems (Flower-CDN vs Squirrel, Figures 6-8)
must feed *exactly the same* query stream to both; a run builds its trace
once and replays it to every system.  Half a million
:class:`Query`/:class:`ResolvedQuery` instances would cost hundreds of
megabytes, so :class:`QueryTraceArrays` and :class:`ResolvedTraceArrays` hold
the same information as parallel ``array`` columns (a few bytes per query);
a simulated run replays them as scalars (:meth:`ResolvedTraceArrays.replayer`)
and query objects are materialised only on demand.  They are produced
by :meth:`repro.workload.generator.QueryGenerator.generate_trace` and
:meth:`repro.workload.assignment.ClientAssigner.assign_trace`, the one trace
pipeline; ``tests/reference/workload.py`` holds the per-query reference
their columns and stream states are tested against.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterator, Optional, Sequence, Tuple

from repro.workload.catalog import Website
from repro.workload.generator import Query


class QueryTraceArrays:
    """A generated workload held as parallel array columns.

    Column-for-column equivalent to a stream of :class:`Query` objects —
    ``query(i)`` materialises the ``i``-th — but ~20 bytes per query instead
    of several hundred.
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
        """Materialise the ``index``-th query."""
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
