"""The column fold is the per-record fold, to the bit.

``MetricsCollector`` stores per-query columns and folds them one run of
same-window rows at a time (``TimeSeries.add_run`` / ``Histogram.extend``).
The reference is the parent's semantics: one ``TimeSeries.add`` /
``Histogram.add`` per record, in record order.  Every float the two produce
— window sums, overall sums, histogram sums, minima, maxima — must be equal
exactly, however reads interleave with writes, retained or compact, and
when a run cut into blocks is folded in trace order (``record_trace``).
"""

from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.metrics.collectors import (
    PENDING_FLUSH_THRESHOLD,
    MetricsCollector,
    OutcomeColumns,
    QueryOutcome,
    QueryRecord,
)
from repro.metrics.histogram import Histogram
from repro.metrics.timeseries import TimeSeries

WINDOW_S = 600.0
OUTCOMES = list(QueryOutcome)
# Values with full mantissas: any change in addition order shows in the sums.
VALUES = st.floats(min_value=0.0, max_value=2000.0, allow_nan=False)


class ReferenceHistogram(Histogram):
    """``Histogram`` with the parent's one-value-at-a-time ``add``."""

    def add(self, value):
        index = int(value // self._bin_width)
        self._counts[min(index, self._num_bins)] += 1
        self._total += 1
        self._sum += value


class ReferenceFold:
    """The per-record aggregation the collector replaced."""

    def __init__(self):
        self.hit_series = TimeSeries(WINDOW_S)
        self.latency_series = TimeSeries(WINDOW_S)
        self.distance_series = TimeSeries(WINDOW_S)
        self.latency_histogram = ReferenceHistogram(150.0, 10)
        self.distance_histogram = ReferenceHistogram(100.0, 6)
        self.counts = {}
        self.hops = 0
        self.failures = 0
        self.total = 0

    def add(self, record):
        miss = record.outcome is QueryOutcome.SERVER_MISS
        self.counts[record.outcome] = self.counts.get(record.outcome, 0) + 1
        self.hit_series.add(record.time, 0.0 if miss else 1.0)
        self.latency_series.add(record.time, record.lookup_latency_ms)
        self.latency_histogram.add(record.lookup_latency_ms)
        if not miss:
            self.distance_series.add(record.time, record.transfer_distance_ms)
            self.distance_histogram.add(record.transfer_distance_ms)
        self.hops += record.overlay_hops
        self.failures += record.redirection_failures
        self.total += 1


def _series_state(series):
    return (series._buckets, series._total_sum, series._total_count)


def _histogram_state(histogram):
    return (histogram._counts, histogram._total, histogram._sum)


def assert_same_aggregates(collector, reference):
    assert collector.num_queries == reference.total
    assert collector.outcome_counts() == reference.counts
    assert collector.redirection_failures == reference.failures
    assert collector.average_overlay_hops == (
        reference.hops / reference.total if reference.total else 0.0
    )
    for ours, theirs in (
        (collector.hit_ratio_series, reference.hit_series),
        (collector.lookup_latency_series, reference.latency_series),
        (collector.transfer_distance_series, reference.distance_series),
    ):
        assert _series_state(ours) == _series_state(theirs)
    for ours, theirs in (
        (collector.lookup_latency_histogram, reference.latency_histogram),
        (collector.transfer_distance_histogram, reference.distance_histogram),
    ):
        assert _histogram_state(ours) == _histogram_state(theirs)


@st.composite
def record_lists(draw, max_size=120):
    size = draw(st.integers(0, max_size))
    if draw(st.booleans()):
        # A simulated run: non-decreasing times.
        gaps = draw(st.lists(st.floats(0.0, 400.0), min_size=size, max_size=size))
        times, clock = [], 0.0
        for gap in gaps:
            clock += gap
            times.append(clock)
    else:
        # The public entry accepts any order.
        times = draw(st.lists(st.floats(0.0, 6000.0), min_size=size, max_size=size))
    return [
        QueryRecord(
            query_id=index,
            time=time,
            website=f"site-{draw(st.integers(0, 2))}",
            locality=draw(st.integers(0, 3)),
            outcome=draw(st.sampled_from(OUTCOMES)),
            lookup_latency_ms=draw(VALUES),
            transfer_distance_ms=draw(VALUES),
            overlay_hops=draw(st.integers(0, 6)),
            provider=draw(st.sampled_from([None, "c(a)@1", "c(b)@2"])),
            redirection_failures=draw(st.integers(0, 3)),
        )
        for index, time in enumerate(times)
    ]


@settings(max_examples=150, deadline=None)
@given(record_lists(), st.booleans(), st.sets(st.integers(0, 119), max_size=6))
def test_fold_equals_per_record_adds_under_interleaved_reads(records, retain, read_points):
    collector = MetricsCollector(window_s=WINDOW_S, retain_records=retain)
    reference = ReferenceFold()
    for index, record in enumerate(records):
        collector.record(record)
        reference.add(record)
        if index in read_points:
            collector.hit_ratio  # a read folds whatever is pending
    assert_same_aggregates(collector, reference)
    if retain:
        assert list(collector.records) == records
    else:
        with pytest.raises(RuntimeError, match="compact"):
            collector.records


def fold_in_trace_order(records, block_of, retain, processes=1):
    """What a blocked run does with ``records``: every block writes its rows
    (in its own order) — at their trace positions when one process runs them
    all, else packed in the order its process ran them and then adopted at
    their positions — and a single collector records trace and outcomes side
    by side."""
    blocks = sorted(set(block_of))
    dealt = [blocks[rank::processes] for rank in range(processes)]
    rows = OutcomeColumns(len(records), keep_providers=retain)
    for mine in dealt:
        positions = [
            position for block in mine for position, owner in enumerate(block_of) if owner == block
        ]
        packed = rows if processes == 1 else OutcomeColumns(len(positions), keep_providers=retain)
        slots = positions if processes == 1 else range(len(positions))
        for slot, position in zip(slots, positions):
            record = records[position]
            packed.put(slot, (
                record.outcome, record.lookup_latency_ms, record.transfer_distance_ms,
                record.overlay_hops, record.provider, record.redirection_failures,
            ))
        if processes > 1:
            rows.adopt(packed, positions)
    names = sorted({record.website for record in records})
    collector = MetricsCollector(window_s=WINDOW_S, retain_records=retain)
    collector.record_trace(
        names,
        array("L", [record.query_id for record in records]),
        array("d", [record.time for record in records]),
        array("H", [names.index(record.website) for record in records]),
        array("H", [record.locality for record in records]),
        rows,
    )
    return collector


@settings(max_examples=100, deadline=None)
@given(record_lists(), st.data(), st.booleans(), st.integers(1, 3))
def test_record_trace_equals_the_per_record_fold_however_the_run_was_cut(
    records, data, retain, processes
):
    block_of = data.draw(
        st.lists(st.integers(0, 4), min_size=len(records), max_size=len(records))
    )
    collector = fold_in_trace_order(records, block_of, retain, processes)
    reference = ReferenceFold()
    for record in records:
        reference.add(record)
    assert_same_aggregates(collector, reference)
    if retain:
        assert list(collector.records) == records


def test_compact_fold_across_the_flush_threshold():
    """Long enough that compact mode folds (and truncates) several times."""
    compact = MetricsCollector(window_s=WINDOW_S, retain_records=False)
    retained = MetricsCollector(window_s=WINDOW_S)
    reference = ReferenceFold()
    for index in range(2 * PENDING_FLUSH_THRESHOLD + 77):
        record = QueryRecord(
            index, index * 0.37, "ws", index % 3, OUTCOMES[index % 4],
            (index * 7919 % 1000) / 7.0, (index * 104729 % 600) / 3.0, index % 5, None, index % 2,
        )
        for sink in (compact, retained):
            sink.record(record)
        reference.add(record)
    assert len(compact._times) <= PENDING_FLUSH_THRESHOLD
    assert_same_aggregates(compact, reference)
    assert_same_aggregates(retained, reference)


def test_record_trace_across_the_flush_threshold_and_its_refusals():
    size = 2 * PENDING_FLUSH_THRESHOLD + 77
    records = [
        QueryRecord(
            index, index * 0.37, f"ws-{index % 2}", index % 3, OUTCOMES[index % 4],
            (index * 7919 % 1000) / 7.0, (index * 104729 % 600) / 3.0, index % 5, None, index % 2,
        )
        for index in range(size)
    ]
    reference = ReferenceFold()
    for record in records:
        reference.add(record)
    block_of = [index % 3 for index in range(size)]
    for retain in (True, False):
        collector = fold_in_trace_order(records, block_of, retain)
        assert_same_aggregates(collector, reference)
        assert len(collector._times) == (size if retain else 0)
        with pytest.raises(RuntimeError, match="fresh collector"):
            collector.record_trace(
                [], array("L"), array("d"), array("H"), array("H"), OutcomeColumns(0, False)
            )
    # A block that died before the horizon leaves rows unanswered: refuse.
    short = OutcomeColumns(3, keep_providers=False)
    for slot in (0, 2):
        short.put(slot, (OUTCOMES[0], 1.0, 1.0, 0, None, 0))
    with pytest.raises(RuntimeError, match="unanswered"):
        MetricsCollector(window_s=WINDOW_S).record_trace(
            ["ws"], array("L", range(3)), array("d", [0.0] * 3), array("H", [0] * 3),
            array("H", [0] * 3), short,
        )


def test_negative_time_is_rejected_at_the_fold():
    collector = MetricsCollector(window_s=WINDOW_S)
    collector.record(QueryRecord(0, -1.0, "ws", 0, OUTCOMES[0], 1.0, 1.0))
    with pytest.raises(ValueError, match="non-negative"):
        collector.hit_ratio
