"""The column fold is the per-record fold, to the bit.

``MetricsCollector`` stores per-query columns and folds them one run of
same-window rows at a time (``TimeSeries.add_run`` / ``Histogram.extend``).
The reference is the parent's semantics: one ``TimeSeries.add`` /
``Histogram.add`` per record, in record order.  Every float the two produce
— window sums, overall sums, histogram sums, minima, maxima — must be equal
exactly, however reads interleave with writes, retained or compact, and
through ``merge_compact_from``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.metrics.collectors import (
    PENDING_FLUSH_THRESHOLD,
    MetricsCollector,
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
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value


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

    def merge(self, other):
        self.hit_series.merge_from(other.hit_series)
        self.latency_series.merge_from(other.latency_series)
        self.distance_series.merge_from(other.distance_series)
        self.latency_histogram.merge_from(other.latency_histogram)
        self.distance_histogram.merge_from(other.distance_histogram)
        for outcome, count in other.counts.items():
            self.counts[outcome] = self.counts.get(outcome, 0) + count
        self.hops += other.hops
        self.failures += other.failures
        self.total += other.total


def _series_state(series):
    return (series._buckets, series._total_sum, series._total_count)


def _histogram_state(histogram):
    return (histogram._counts, histogram._total, histogram._sum, histogram._min, histogram._max)


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


@settings(max_examples=60, deadline=None)
@given(record_lists(), st.integers(1, 4))
def test_merge_compact_from_equals_merging_per_record_folds(records, shards):
    merged = MetricsCollector(window_s=WINDOW_S, retain_records=False)
    reference = ReferenceFold()
    for shard in range(shards):
        part = MetricsCollector(window_s=WINDOW_S, retain_records=False)
        part_reference = ReferenceFold()
        for record in records[shard::shards]:
            part.record(record)
            part_reference.add(record)
        merged.merge_compact_from(part)
        reference.merge(part_reference)
    assert_same_aggregates(merged, reference)


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


def test_retained_collectors_merge_by_replay():
    retained = MetricsCollector(window_s=WINDOW_S)
    with pytest.raises(RuntimeError, match="record_all"):
        retained.merge_compact_from(MetricsCollector(window_s=WINDOW_S))


def test_negative_time_is_rejected_at_the_fold():
    collector = MetricsCollector(window_s=WINDOW_S)
    collector.record(QueryRecord(0, -1.0, "ws", 0, OUTCOMES[0], 1.0, 1.0))
    with pytest.raises(ValueError, match="non-negative"):
        collector.hit_ratio
