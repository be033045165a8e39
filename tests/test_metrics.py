"""Unit tests for histograms, time series, collectors and report formatting."""

import pytest

from repro.metrics.collectors import (
    BandwidthAccountant,
    MetricsCollector,
    QueryOutcome,
    QueryRecord,
)
from repro.metrics.histogram import Histogram
from repro.metrics.report import format_series, format_table, percentiles_table
from repro.metrics.timeseries import TimeSeries


def make_record(query_id=0, time=0.0, outcome=QueryOutcome.LOCAL_OVERLAY_HIT,
                latency=50.0, distance=30.0, hops=0, failures=0) -> QueryRecord:
    return QueryRecord(
        query_id=query_id,
        time=time,
        website="site-000.example.org",
        locality=0,
        outcome=outcome,
        lookup_latency_ms=latency,
        transfer_distance_ms=distance,
        overlay_hops=hops,
        redirection_failures=failures,
    )


class TestHistogram:
    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram(bin_width=0, num_bins=5)
        with pytest.raises(ValueError):
            Histogram(bin_width=10, num_bins=0)
        with pytest.raises(ValueError):
            Histogram(bin_width=10, num_bins=5).add(-1)

    def test_values_fall_into_expected_bins(self):
        histogram = Histogram(bin_width=100, num_bins=3)
        histogram.extend([10, 150, 250, 500])
        counts = histogram.as_dict()
        assert counts["[0, 100)"] == 1
        assert counts["[100, 200)"] == 1
        assert counts["[200, 300)"] == 1
        assert counts[">=300"] == 1

    def test_mean_min_max(self):
        histogram = Histogram(bin_width=10, num_bins=10)
        histogram.extend([10.0, 20.0, 30.0])
        assert histogram.mean == pytest.approx(20.0)
        assert histogram.min == 10.0
        assert histogram.max == 30.0
        assert histogram.total == 3

    def test_fraction_below_and_above(self):
        histogram = Histogram(bin_width=150, num_bins=10)
        histogram.extend([50] * 87 + [2000] * 13)
        assert histogram.fraction_below(150) == pytest.approx(0.87)
        assert histogram.fraction_above(150) == pytest.approx(0.13)

    def test_fractions_of_empty_histogram(self):
        histogram = Histogram(bin_width=10, num_bins=2)
        assert histogram.fraction_below(10) == 0.0
        assert histogram.fraction_above(10) == 0.0
        assert all(fraction == 0.0 for _, fraction in histogram.as_fractions())

    def test_as_fractions_sums_to_one(self):
        histogram = Histogram(bin_width=10, num_bins=5)
        histogram.extend(range(0, 100, 7))
        assert sum(f for _, f in histogram.as_fractions()) == pytest.approx(1.0)


class TestTimeSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeries(window_s=0)
        with pytest.raises(ValueError):
            TimeSeries(window_s=10).add(-1, 0)

    def test_window_means(self):
        series = TimeSeries(window_s=10)
        series.add(1, 1.0)
        series.add(2, 3.0)
        series.add(15, 10.0)
        means = dict(series.window_means())
        assert means[0.0] == pytest.approx(2.0)
        assert means[10.0] == pytest.approx(10.0)

    def test_cumulative_means_are_running_average(self):
        series = TimeSeries(window_s=10)
        series.add(5, 0.0)
        series.add(15, 1.0)
        series.add(25, 1.0)
        cumulative = [value for _, value in series.cumulative_means()]
        assert cumulative == pytest.approx([0.0, 0.5, 2.0 / 3.0])

    def test_overall_mean_and_count(self):
        series = TimeSeries(window_s=5)
        for i in range(10):
            series.add(i, float(i))
        assert series.total_count == 10
        assert series.overall_mean == pytest.approx(4.5)

    def test_values_after_warmup(self):
        series = TimeSeries(window_s=10)
        series.add(5, 100.0)
        series.add(25, 10.0)
        series.add(35, 20.0)
        assert series.values_after(20) == (10.0, 20.0)

    def test_empty_series(self):
        series = TimeSeries(window_s=10)
        assert series.windows() == []
        assert series.overall_mean == 0.0


class TestMetricsCollector:
    def test_hit_ratio_counts_all_hit_outcomes(self):
        collector = MetricsCollector(window_s=10)
        collector.record(make_record(0, outcome=QueryOutcome.LOCAL_OVERLAY_HIT))
        collector.record(make_record(1, outcome=QueryOutcome.REMOTE_OVERLAY_HIT))
        collector.record(make_record(2, outcome=QueryOutcome.PEER_HIT))
        collector.record(make_record(3, outcome=QueryOutcome.SERVER_MISS))
        assert collector.hit_ratio == pytest.approx(0.75)
        assert collector.num_queries == 4

    def test_transfer_distance_only_counts_hits(self):
        collector = MetricsCollector(window_s=10)
        collector.record(make_record(0, outcome=QueryOutcome.LOCAL_OVERLAY_HIT, distance=10))
        collector.record(make_record(1, outcome=QueryOutcome.SERVER_MISS, distance=500))
        assert collector.average_transfer_distance_ms == pytest.approx(10.0)

    def test_latency_includes_all_queries(self):
        collector = MetricsCollector(window_s=10)
        collector.record(make_record(0, latency=100))
        collector.record(make_record(1, outcome=QueryOutcome.SERVER_MISS, latency=500))
        assert collector.average_lookup_latency_ms == pytest.approx(300.0)

    def test_outcome_fractions(self):
        collector = MetricsCollector(window_s=10)
        collector.record_all(make_record(i) for i in range(3))
        fractions = collector.outcome_fractions()
        assert fractions[QueryOutcome.LOCAL_OVERLAY_HIT] == pytest.approx(1.0)

    def test_empty_collector_defaults(self):
        collector = MetricsCollector()
        assert collector.hit_ratio == 0.0
        assert collector.average_lookup_latency_ms == 0.0
        assert collector.average_overlay_hops == 0.0
        assert collector.outcome_fractions() == {}

    def test_redirection_failures_and_hops(self):
        collector = MetricsCollector(window_s=10)
        collector.record(make_record(0, hops=4, failures=1))
        collector.record(make_record(1, hops=2, failures=0))
        assert collector.average_overlay_hops == pytest.approx(3.0)
        assert collector.redirection_failures == 1

    def test_steady_state_helpers(self):
        collector = MetricsCollector(window_s=10)
        collector.record(make_record(0, time=5, latency=500))
        collector.record(make_record(1, time=25, latency=100))
        assert collector.steady_state_latency_ms(warmup_s=20) == pytest.approx(100.0)
        assert collector.steady_state_distance_ms(warmup_s=20) == pytest.approx(30.0)

    def test_outcome_is_hit_property(self):
        assert QueryOutcome.LOCAL_OVERLAY_HIT.is_hit
        assert QueryOutcome.REMOTE_OVERLAY_HIT.is_hit
        assert QueryOutcome.PEER_HIT.is_hit
        assert not QueryOutcome.SERVER_MISS.is_hit


class TestBandwidthAccountant:
    def test_both_endpoints_are_charged(self):
        accountant = BandwidthAccountant(window_s=10)
        accountant.record_message(1.0, "a", "b", 100, "gossip")
        assert accountant.num_peers == 2
        assert accountant.total_bytes == 200

    def test_average_bps_per_peer(self):
        accountant = BandwidthAccountant(window_s=10)
        accountant.record_message(1.0, "a", "b", 125, "gossip")  # 1000 bits each
        assert accountant.average_bps_per_peer(duration_s=10) == pytest.approx(100.0)

    def test_idle_observed_peers_dilute_the_average(self):
        accountant = BandwidthAccountant(window_s=10)
        accountant.record_message(1.0, "a", "b", 125, "gossip")
        accountant.observe_peer(0.0, "idle")
        assert accountant.average_bps_per_peer(10) == pytest.approx(200.0 / 3)

    def test_categories_are_validated_and_tracked(self):
        accountant = BandwidthAccountant(window_s=10)
        with pytest.raises(ValueError):
            accountant.record_message(0, "a", "b", 10, "video")
        with pytest.raises(ValueError):
            accountant.record_message(0, "a", "b", -1, "gossip")
        accountant.record_message(0, "a", "b", 10, "push")
        accountant.record_message(0, "a", "b", 10, "keepalive")
        assert accountant.messages_by_category() == {"push": 1, "keepalive": 1}
        assert accountant.total_bytes_by_category()["push"] == 20

    def test_bps_series_and_peak(self):
        accountant = BandwidthAccountant(window_s=10)
        accountant.record_message(5.0, "a", "b", 100, "gossip")
        accountant.record_message(15.0, "a", "b", 200, "gossip")
        series = accountant.bps_series()
        assert len(series) == 2
        assert accountant.peak_bps_per_peer(20) > 0
        with pytest.raises(ValueError):
            accountant.average_bps_per_peer(0)

    def test_empty_accountant(self):
        accountant = BandwidthAccountant()
        assert accountant.average_bps_per_peer(10) == 0.0
        assert accountant.peak_bps_per_peer(10) == 0.0


class TestReportFormatting:
    def test_format_table_alignment_and_title(self):
        text = format_table(["name", "value"], [("a", 1.5), ("bb", 2)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_table_handles_floats(self):
        text = format_table(["x"], [(0.123456,)])
        assert "0.123" in text

    def test_percentiles_table(self):
        text = percentiles_table("latency", [1.0, 2.0, 3.0, 4.0])
        assert "latency" in text and "p50" in text and "mean=2.5" in text

    def test_percentiles_table_empty(self):
        assert "no samples" in percentiles_table("x", [])

    def test_format_series(self):
        text = format_series("curve", [(0.0, 1.0), (10.0, 2.0)])
        assert "curve" in text
        assert "10" in text


class TestCompactMetricsCollector:
    """retain_records=False: identical aggregates, bounded memory."""

    def _fill(self, collector, count=9000):
        import random
        rng = random.Random(4)
        outcomes = list(QueryOutcome)
        for i in range(count):
            collector.record(
                make_record(
                    query_id=i,
                    time=rng.uniform(0, 7200),
                    outcome=outcomes[i % len(outcomes)],
                    latency=rng.uniform(0, 900),
                    distance=rng.uniform(0, 500),
                    hops=i % 4,
                    failures=i % 3,
                )
            )

    def test_aggregates_identical_to_retained_mode(self):
        retained = MetricsCollector(window_s=600.0)
        compact = MetricsCollector(window_s=600.0, retain_records=False)
        self._fill(retained)
        self._fill(compact)
        assert compact.num_queries == retained.num_queries
        assert compact.hit_ratio == retained.hit_ratio
        assert compact.average_lookup_latency_ms == retained.average_lookup_latency_ms
        assert compact.average_transfer_distance_ms == retained.average_transfer_distance_ms
        assert compact.average_overlay_hops == retained.average_overlay_hops
        assert compact.redirection_failures == retained.redirection_failures
        assert compact.outcome_counts() == retained.outcome_counts()
        assert compact.outcome_fractions() == retained.outcome_fractions()
        assert (
            compact.hit_ratio_series.window_means()
            == retained.hit_ratio_series.window_means()
        )
        assert (
            compact.lookup_latency_series.window_means()
            == retained.lookup_latency_series.window_means()
        )

    def test_interleaved_reads_do_not_change_aggregates(self):
        retained = MetricsCollector(window_s=600.0)
        compact = MetricsCollector(window_s=600.0, retain_records=False)
        for i in range(5000):
            record = make_record(query_id=i, time=float(i), latency=float(i % 100))
            retained.record(record)
            compact.record(record)
            if i % 777 == 0:
                compact.hit_ratio  # interleaved read forces an early fold
        assert compact.hit_ratio == retained.hit_ratio
        assert compact.num_queries == retained.num_queries

    def test_compact_buffer_stays_bounded(self):
        from repro.metrics.collectors import PENDING_FLUSH_THRESHOLD

        compact = MetricsCollector(window_s=600.0, retain_records=False)
        self._fill(compact, count=3 * PENDING_FLUSH_THRESHOLD)
        assert len(compact._times) <= PENDING_FLUSH_THRESHOLD

    def test_records_unavailable_in_compact_mode(self):
        compact = MetricsCollector(retain_records=False)
        compact.record(make_record())
        with pytest.raises(RuntimeError, match="compact"):
            compact.records

    def test_retained_mode_still_exposes_records(self):
        retained = MetricsCollector()
        retained.record(make_record())
        assert retained.retains_records
        assert len(retained.records) == 1


class TestBandwidthPendingFlush:
    def test_pending_buffer_stays_bounded(self):
        from repro.metrics.collectors import PENDING_FLUSH_THRESHOLD

        accountant = BandwidthAccountant(window_s=600.0)
        for i in range(3 * PENDING_FLUSH_THRESHOLD):
            accountant.record_message(float(i % 1000), f"p{i % 7}", f"p{(i + 1) % 7}", 100, "gossip")
        assert len(accountant._pending) < PENDING_FLUSH_THRESHOLD
        assert accountant.total_bytes == 3 * PENDING_FLUSH_THRESHOLD * 200
