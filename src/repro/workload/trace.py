"""Query traces as array columns.

Experiments that compare two systems (Flower-CDN vs Squirrel, Figures 6-8)
must feed *exactly the same* query stream to both; a run builds its trace
once and replays it to every system.  Half a million
:class:`Query`/:class:`ResolvedQuery` instances would cost hundreds of
megabytes, so :class:`QueryTraceArrays` and :class:`ResolvedTraceArrays` hold
the same information as parallel ``array`` columns (a few bytes per query);
a simulated run replays them as scalars (each system's ``trace_replay``) and
query objects are materialised only on demand.  They are produced
by :meth:`repro.workload.generator.QueryGenerator.generate_trace` and
:meth:`repro.workload.assignment.ClientAssigner.assign_trace`, the one trace
pipeline; ``tests/reference/workload.py`` holds the per-query reference
their columns and stream states are tested against.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Tuple

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
