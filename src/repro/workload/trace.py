"""Query traces as array columns.

Experiments that compare two systems (Flower-CDN vs Squirrel, Figures 6-8)
must feed *exactly the same* query stream to both; a run builds its trace
once and replays it to every system.  Half a million per-query objects would
cost hundreds of megabytes, so :class:`QueryTraceArrays` and
:class:`ResolvedTraceArrays` hold the queries as parallel ``array`` columns
(a few bytes per query); a simulated run replays them as scalars (each
system's ``trace_replay``) and its one fold records the outcome rows beside
the query columns.  They are produced by
:meth:`repro.workload.generator.QueryGenerator.generate_trace` and
:meth:`repro.workload.assignment.ClientAssigner.assign_trace`, the one trace
pipeline; ``tests/reference/workload.py`` holds the per-query reference
their columns and stream states are tested against.
"""

from __future__ import annotations

from array import array
from typing import Tuple

from repro.workload.catalog import Website


class QueryTraceArrays:
    """A generated workload held as parallel array columns.

    One column per field of a generated query (its id is
    ``first_query_id`` plus its position), ~20 bytes per query.
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


class ResolvedTraceArrays:
    """A client-assigned workload held as parallel array columns.

    A generated trace's columns with each query bound to its originating
    host; built by :meth:`repro.workload.assignment.ClientAssigner.assign_trace`.
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
