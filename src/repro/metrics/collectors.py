"""Metric collectors shared by Flower-CDN, Squirrel and the experiment harness.

Two collectors exist:

* :class:`MetricsCollector` records per-query outcomes (hit/miss, lookup
  latency, transfer distance, overlay hops) and exposes the aggregates,
  time series and distributions needed by every table and figure;
* :class:`BandwidthAccountant` records background-traffic bytes (gossip,
  push, keepalive, summary refresh messages) per peer and converts them to
  the paper's "average bps experienced by a content or directory peer".
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence

from repro.metrics.histogram import Histogram
from repro.metrics.timeseries import TimeSeries


class QueryOutcome(Enum):
    """Where a query was ultimately served from."""

    #: served by a content peer of the requester's own content overlay
    LOCAL_OVERLAY_HIT = "local_overlay_hit"
    #: served by a content peer of another locality's content overlay of the
    #: same website (reached through directory summaries)
    REMOTE_OVERLAY_HIT = "remote_overlay_hit"
    #: served by any peer of the P2P system without locality attribution
    #: (used by the Squirrel baseline, which has no locality notion)
    PEER_HIT = "peer_hit"
    #: the P2P system could not provide the object; served by the origin server
    SERVER_MISS = "server_miss"

    @property
    def is_hit(self) -> bool:
        return self is not QueryOutcome.SERVER_MISS


@dataclass(slots=True, unsafe_hash=True)
class QueryRecord:
    """Everything the evaluation needs to know about one processed query.

    The object form of one collector row: built on demand by
    :attr:`MetricsCollector.records` and by the ``handle_query`` adapters,
    never on the simulated query path.  Deliberately *not* frozen (a frozen
    ``__init__`` routes every field through ``object.__setattr__``);
    ``unsafe_hash`` keeps value-object hashing.  Treat instances as immutable.
    """

    query_id: int
    time: float
    website: str
    locality: int
    outcome: QueryOutcome
    lookup_latency_ms: float
    transfer_distance_ms: float
    overlay_hops: int = 0
    provider: Optional[str] = None
    redirection_failures: int = 0


#: collectors fold their columns into the aggregates once this many rows are
#: pending, so a fold's temporaries stay bounded — and so do the columns of a
#: compact collector, which a fold truncates
PENDING_FLUSH_THRESHOLD = 4096

#: the outcome column stores positions in this tuple
_OUTCOMES = tuple(QueryOutcome)
_MISS = _OUTCOMES.index(QueryOutcome.SERVER_MISS)
#: a record's fields in ``record_row`` order (which is the field order)
_ROW_OF = attrgetter(*QueryRecord.__slots__)


class OutcomeColumns:
    """The outcome half of a run's query rows, one slot per trace position.

    What the blocks of a run cut by website fill — each through
    :meth:`record_row`, in place of its system's collector — and one
    :meth:`MetricsCollector.record_trace` folds: ~25 bytes per query
    (``providers`` only for a collector that retains records), while the
    query half of every row stays in the trace.
    """

    __slots__ = ("outcomes", "latencies", "distances", "hops", "failures", "providers", "_next")

    def __init__(self, size: int, keep_providers: bool) -> None:
        self.outcomes = array("b", [-1]) * size  # -1: not answered (yet)
        self.latencies = array("d", bytes(8 * size))
        self.distances = array("d", bytes(8 * size))
        self.hops = array("i", [0]) * size
        self.failures = array("i", [0]) * size
        self.providers: Optional[List[Optional[str]]] = [None] * size if keep_providers else None
        self._next = iter(()).__next__

    def begin_block(self, positions: Iterable[int]) -> None:
        """Rows recorded from now on land at ``positions``, in that order."""
        self._next = iter(positions).__next__

    def record_row(
        self,
        query_id: int,
        time: float,
        website: str,
        locality: int,
        outcome: QueryOutcome,
        lookup_latency_ms: float,
        transfer_distance_ms: float,
        overlay_hops: int = 0,
        provider: Optional[str] = None,
        redirection_failures: int = 0,
    ) -> None:
        """:meth:`MetricsCollector.record_row`, keeping the outcome fields only."""
        position = self._next()
        self.outcomes[position] = _OUTCOMES.index(outcome)
        self.latencies[position] = lookup_latency_ms
        self.distances[position] = transfer_distance_ms
        self.hops[position] = overlay_hops
        self.failures[position] = redirection_failures
        if self.providers is not None:
            self.providers[position] = provider

    def adopt(self, packed: "OutcomeColumns", positions: Sequence[int]) -> None:
        """Put the rows of ``packed`` (another process's blocks, in the order
        it ran them) at ``positions``."""
        for name in self.__slots__[:-1]:
            mine, theirs = getattr(self, name), getattr(packed, name)
            if mine is not None:
                for position, value in zip(positions, theirs):
                    mine[position] = value


class MetricsCollector:
    """Accumulates per-query rows and derives the paper's metrics.

    Rows live in parallel columns (``array``s, plus one list for the provider
    ids) and are folded into the series / histogram / counter reservoirs
    lazily, on first read, one time window at a time.  ``retain_records``
    only decides what happens to folded rows:

    * ``True`` (default) — the columns are kept and :attr:`records`
      materialises them as :class:`QueryRecord` objects on demand;
    * ``False`` (compact) — a fold truncates the columns, so memory stays
      O(windows + bins) regardless of query count — the paper-scale mode.
      ``records`` is unavailable.
    """

    def __init__(
        self,
        window_s: float = 3600.0,
        latency_bin_ms: float = 150.0,
        latency_bins: int = 10,
        distance_bin_ms: float = 100.0,
        distance_bins: int = 6,
        retain_records: bool = True,
    ) -> None:
        #: one column per QueryRecord field, in field order; websites and
        #: outcomes are stored as positions in their code tables
        self._columns = (
            array("q"), array("d"), array("I"), array("i"), array("b"),
            array("d"), array("d"), array("i"), [], array("i"),
        )
        (
            self._query_ids, self._times, self._websites, self._localities, self._outcomes,
            self._latencies, self._distances, self._hops, self._providers, self._failures,
        ) = self._columns
        self._website_codes: Dict[str, int] = {}  # insertion-ordered
        self._hit_series = TimeSeries(window_s)
        self._latency_series = TimeSeries(window_s)
        self._distance_series = TimeSeries(window_s)
        self._latency_histogram = Histogram(latency_bin_ms, latency_bins)
        self._distance_histogram = Histogram(distance_bin_ms, distance_bins)
        self._outcome_counts = [0] * len(_OUTCOMES)
        self._retain = retain_records
        #: rows [0, _folded_upto) of the columns are already in the aggregates
        self._folded_upto = 0
        self._folded_count = 0
        self._folded_hops = 0
        self._folded_failures = 0

    # -- recording -------------------------------------------------------------

    def record_row(
        self,
        query_id: int,
        time: float,
        website: str,
        locality: int,
        outcome: QueryOutcome,
        lookup_latency_ms: float,
        transfer_distance_ms: float,
        overlay_hops: int = 0,
        provider: Optional[str] = None,
        redirection_failures: int = 0,
    ) -> None:
        """Append one query's row (the fields of a :class:`QueryRecord`).

        The per-query hot path: column appends only; aggregation is deferred
        to :meth:`_fold`.
        """
        times = self._times
        if len(times) - self._folded_upto >= PENDING_FLUSH_THRESHOLD:
            self._fold()
        codes = self._website_codes
        code = codes.get(website)
        if code is None:
            code = codes[website] = len(codes)
        self._query_ids.append(query_id)
        times.append(time)
        self._websites.append(code)
        self._localities.append(locality)
        self._outcomes.append(_OUTCOMES.index(outcome))
        self._latencies.append(lookup_latency_ms)
        self._distances.append(transfer_distance_ms)
        self._hops.append(overlay_hops)
        self._providers.append(provider)
        self._failures.append(redirection_failures)

    def record(self, record: QueryRecord) -> None:
        self.record_row(*_ROW_OF(record))

    def record_all(self, records: Iterable[QueryRecord]) -> None:
        for record in records:
            self.record(record)

    def _fold(self) -> None:
        """Fold not-yet-aggregated rows into the derived structures.

        Incremental: each row is folded exactly once, in append order and one
        run of same-window rows at a time, so every float sum sees the same
        additions in the same order as eager per-record ``TimeSeries.add`` /
        ``Histogram.add`` calls, however reads and writes interleave.
        Compact mode additionally truncates the columns.
        """
        start = self._folded_upto
        times = self._times[start:]
        if not times:
            return
        outcomes = self._outcomes[start:]
        latencies = self._latencies[start:]
        distances = self._distances[start:]
        counts = self._outcome_counts
        for code in range(len(counts)):
            counts[code] += outcomes.count(code)
        self._latency_histogram.extend(latencies)
        self._distance_histogram.extend(
            [distance for distance, code in zip(distances, outcomes) if code != _MISS]
        )
        window_s = self._hit_series.window_s
        low = 0
        for window, run in groupby([int(time // window_s) for time in times]):
            high = low + len(list(run))
            run_outcomes = outcomes[low:high]
            self._hit_series.add_run(
                window, [0.0 if code == _MISS else 1.0 for code in run_outcomes]
            )
            self._latency_series.add_run(window, latencies[low:high])
            # The transfer-distance metric is defined over queries satisfied
            # from the P2P system (Section 6).
            self._distance_series.add_run(
                window,
                [
                    distance
                    for distance, code in zip(distances[low:high], run_outcomes)
                    if code != _MISS
                ],
            )
            low = high
        total = len(times)
        self._folded_count += total
        self._folded_hops += sum(self._hops[start:])
        self._folded_failures += sum(self._failures[start:])
        if self._retain:
            self._folded_upto = len(self._times)
        else:
            for column in self._columns:
                del column[:]

    def record_trace(
        self,
        website_names: Sequence[str],
        query_ids: Sequence[int],
        times: Sequence[float],
        website_index: Sequence[int],
        localities: Sequence[int],
        outcomes: "OutcomeColumns",
    ) -> None:
        """Record a whole run at once, in trace order: the trace's query
        columns beside the outcome columns its blocks filled.

        Row for row the :meth:`record_row` calls of one system that answered
        the trace undivided, so every aggregate — and :attr:`records` — comes
        out the same to the bit however the run was cut.  Needs a fresh
        collector: the website codes become the trace's own indices.
        """
        if self.num_queries:
            raise RuntimeError("record_trace() needs a fresh collector")
        if len(outcomes.outcomes) != len(times) or outcomes.outcomes.count(-1):
            raise RuntimeError("a block left queries of its trace unanswered")
        self._website_codes = {name: code for code, name in enumerate(website_names)}
        providers = outcomes.providers
        for low in range(0, len(times), PENDING_FLUSH_THRESHOLD):
            high = min(low + PENDING_FLUSH_THRESHOLD, len(times))
            chunk = (
                query_ids[low:high], times[low:high], website_index[low:high],
                localities[low:high], outcomes.outcomes[low:high],
                outcomes.latencies[low:high], outcomes.distances[low:high],
                outcomes.hops[low:high],
                [None] * (high - low) if providers is None else providers[low:high],
                outcomes.failures[low:high],
            )
            for column, rows in zip(self._columns, chunk):
                # (array.extend wants its own typecode; anything else iterates)
                same = getattr(rows, "typecode", None) == getattr(column, "typecode", None)
                column.extend(rows if same else iter(rows))
            self._fold()

    # -- aggregates ---------------------------------------------------------------

    @property
    def retains_records(self) -> bool:
        return self._retain

    @property
    def num_queries(self) -> int:
        return self._folded_count + len(self._times) - self._folded_upto

    @property
    def records(self) -> Sequence[QueryRecord]:
        """The retained rows as :class:`QueryRecord` objects (built on demand)."""
        if not self._retain:
            raise RuntimeError(
                "per-query records are not retained in compact mode "
                "(MetricsCollector(retain_records=False))"
            )
        names = list(self._website_codes)
        return tuple(
            QueryRecord(query_id, time, names[website], locality, _OUTCOMES[outcome], *rest)
            for query_id, time, website, locality, outcome, *rest in zip(*self._columns)
        )

    @property
    def hit_ratio(self) -> float:
        """Fraction of queries satisfied from the P2P system."""
        total = self.num_queries
        if not total:
            return 0.0
        self._fold()
        return (total - self._outcome_counts[_MISS]) / total

    @property
    def average_lookup_latency_ms(self) -> float:
        self._fold()
        return self._latency_histogram.mean

    @property
    def average_transfer_distance_ms(self) -> float:
        self._fold()
        return self._distance_histogram.mean

    @property
    def average_overlay_hops(self) -> float:
        total = self.num_queries
        if not total:
            return 0.0
        self._fold()
        return self._folded_hops / total

    @property
    def redirection_failures(self) -> int:
        self._fold()
        return self._folded_failures

    def outcome_counts(self) -> Dict[QueryOutcome, int]:
        self._fold()
        return {
            outcome: count
            for outcome, count in zip(_OUTCOMES, self._outcome_counts)
            if count
        }

    def outcome_fractions(self) -> Dict[QueryOutcome, float]:
        total = self.num_queries
        return {
            outcome: count / total for outcome, count in self.outcome_counts().items()
        }

    # -- series and distributions ----------------------------------------------------

    @property
    def hit_ratio_series(self) -> TimeSeries:
        self._fold()
        return self._hit_series

    @property
    def lookup_latency_series(self) -> TimeSeries:
        self._fold()
        return self._latency_series

    @property
    def transfer_distance_series(self) -> TimeSeries:
        self._fold()
        return self._distance_series

    @property
    def lookup_latency_histogram(self) -> Histogram:
        self._fold()
        return self._latency_histogram

    @property
    def transfer_distance_histogram(self) -> Histogram:
        self._fold()
        return self._distance_histogram

    def steady_state_latency_ms(self, warmup_s: float) -> float:
        """Mean of per-window lookup latencies after the warm-up period."""
        self._fold()
        values = self._latency_series.values_after(warmup_s)
        return sum(values) / len(values) if values else 0.0

    def steady_state_distance_ms(self, warmup_s: float) -> float:
        self._fold()
        values = self._distance_series.values_after(warmup_s)
        return sum(values) / len(values) if values else 0.0


class BandwidthAccountant:
    """Background-traffic accounting (gossip, push, keepalive, summary refresh)."""

    #: categories of background messages counted as overhead; "replication" is
    #: only used by the active-replication extension (Section 8 future work)
    CATEGORIES = ("gossip", "push", "keepalive", "summary", "replication")
    _CATEGORY_SET = frozenset(CATEGORIES)

    def __init__(self, window_s: float = 3600.0) -> None:
        self._bytes_per_peer: Dict[str, float] = defaultdict(float)
        self._bytes_per_category: Dict[str, float] = defaultdict(float)
        self._messages_per_category: Dict[str, int] = defaultdict(int)
        self._series = TimeSeries(window_s)
        self._peer_first_seen: Dict[str, float] = {}
        # record_message() runs on every background message inside the sim
        # loop: validation stays eager (error locality), accumulation is
        # deferred to _sync() like MetricsCollector's.  The buffer is flushed
        # whenever it fills — folding is incremental and order-preserving, so
        # early flushes are invisible to readers while keeping the buffer a
        # bounded ring instead of one tuple per message of the whole run.
        self._pending: List[tuple] = []
        self._append_pending = self._pending.append

    def record_message(
        self, time: float, sender: str, receiver: str, num_bytes: int, category: str
    ) -> None:
        """Account a background message: both endpoints experience the traffic."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if category not in self._CATEGORY_SET:
            raise ValueError(f"unknown traffic category {category!r}")
        self._append_pending((time, sender, receiver, num_bytes, category))
        if len(self._pending) >= PENDING_FLUSH_THRESHOLD:
            self._sync()

    def observe_peer(self, time: float, peer: str) -> None:
        """Register a peer that participates even if it never sends traffic."""
        self._append_pending((time, peer, None, 0, None))
        if len(self._pending) >= PENDING_FLUSH_THRESHOLD:
            self._sync()

    def _sync(self) -> None:
        """Fold pending messages/observations into the aggregates, in order."""
        pending = self._pending
        if not pending:
            return
        bytes_per_peer = self._bytes_per_peer
        first_seen = self._peer_first_seen
        bytes_per_category = self._bytes_per_category
        messages_per_category = self._messages_per_category
        series_add = self._series.add
        setdefault = first_seen.setdefault
        for time, sender, receiver, num_bytes, category in pending:
            if category is None:
                # observe_peer(): participation without traffic.
                bytes_per_peer.setdefault(sender, 0.0)
                setdefault(sender, time)
                continue
            bytes_per_peer[sender] += num_bytes
            setdefault(sender, time)
            bytes_per_peer[receiver] += num_bytes
            setdefault(receiver, time)
            bytes_per_category[category] += 2 * num_bytes
            messages_per_category[category] += 1
            series_add(time, 2 * num_bytes)
        pending.clear()

    def merge_from(self, other: "BandwidthAccountant") -> None:
        """Fold another accountant's totals into this one.

        Byte totals are integer-valued floats (exact under addition in any
        order), first-seen times merge by minimum, and category/series
        aggregates add exactly — so merging per-shard accountants agrees
        bitwise with single-process accounting of the union of messages.
        """
        self._sync()
        other._sync()
        bytes_per_peer = self._bytes_per_peer
        first_seen = self._peer_first_seen
        for peer, num_bytes in other._bytes_per_peer.items():
            bytes_per_peer[peer] += num_bytes
        for peer, time in other._peer_first_seen.items():
            known = first_seen.get(peer)
            if known is None or time < known:
                first_seen[peer] = time
        for category, num_bytes in other._bytes_per_category.items():
            self._bytes_per_category[category] += num_bytes
        for category, count in other._messages_per_category.items():
            self._messages_per_category[category] += count
        self._series.merge_from(other._series)

    # -- aggregates --------------------------------------------------------------

    @property
    def num_peers(self) -> int:
        self._sync()
        return len(self._bytes_per_peer)

    @property
    def total_bytes(self) -> float:
        self._sync()
        return sum(self._bytes_per_peer.values())

    def total_bytes_by_category(self) -> Dict[str, float]:
        self._sync()
        return dict(self._bytes_per_category)

    def messages_by_category(self) -> Dict[str, int]:
        self._sync()
        return dict(self._messages_per_category)

    def average_bps_per_peer(self, duration_s: float) -> float:
        """The paper's *background traffic* metric: mean bps per participating peer."""
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        self._sync()
        if not self._bytes_per_peer:
            return 0.0
        # fsum: correctly rounded independent of peer iteration order, so a
        # sharded run's merged accountant agrees bitwise with single-process.
        per_peer_bps = [
            (total_bytes * 8.0) / duration_s for total_bytes in self._bytes_per_peer.values()
        ]
        return math.fsum(per_peer_bps) / len(per_peer_bps)

    def peak_bps_per_peer(self, duration_s: float) -> float:
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        self._sync()
        if not self._bytes_per_peer:
            return 0.0
        return max((b * 8.0) / duration_s for b in self._bytes_per_peer.values())

    def traffic_series(self) -> TimeSeries:
        """Per-window total background bytes (Figure 5's traffic curve)."""
        self._sync()
        return self._series

    def bps_series(self) -> List[tuple[float, float]]:
        """Per-window average bps per peer over time."""
        self._sync()
        points = []
        peers = max(1, self.num_peers)
        for window in self._series.windows():
            bits = window.total * 8.0
            points.append((window.window_start, bits / (self._series.window_s * peers)))
        return points
