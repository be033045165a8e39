"""Smoke tests of the perf-benchmark suite (`repro perf`).

These run the suite in its shrunken --quick configuration so CI exercises the
whole pipeline — microbenchmarks, scenario benchmarks, JSON document, and the
baseline regression gate — in a few seconds.  The real, tracked numbers live
in the committed ``BENCH_core.json`` next to this file.
"""

import copy
import io
import json

import pytest

from repro import cli
from repro.core.sharding import plan_blocks
from repro.perf import suite
from repro.scenarios.library import get_scenario
from repro.session import Session


class TestRunSuite:
    def test_quick_suite_document_schema(self):
        document = suite.run_suite(scenarios=["paper-default"], quick=True)
        assert document["schema"] == suite.SCHEMA_VERSION
        assert document["quick"] is True
        micro = document["micro"]
        for key in (
            "event_core",
            "event_cancellation",
            "periodic_rescheduling",
            "latency_cache",
            "zipf",
        ):
            assert key in micro, key
        assert micro["event_core"]["events_per_s"] > 0
        assert micro["latency_cache"]["cache_hits"] > micro["latency_cache"]["cache_misses"]
        assert micro["zipf"]["draws_per_s"] > 0
        scenario = document["scenarios"]["paper-default"]
        assert scenario["events_per_s"] > 0
        assert scenario["queries_per_s"] > 0
        assert scenario["wall_s"] > 0
        assert scenario["events_fired"] > scenario["num_queries"] > 0

    def test_scenario_benchmark_deterministic_event_counts(self):
        first = suite.bench_run("paper-default", scale=0.25)
        second = suite.bench_run("paper-default", scale=0.25)
        assert first["events_fired"] == second["events_fired"]
        assert first["num_queries"] == second["num_queries"]

    def test_bench_times_the_run_session_runs(self):
        """The gate times ``Session.run_system``: the same blocks, the same events."""
        bench = suite.bench_run("paper-default")
        spec = get_scenario("paper-default")
        assert bench["blocks"] == len(bench["block_fixed_ms"]) == len(plan_blocks(spec)) == 2
        run = Session.from_name("paper-default").run_system("flower")
        assert bench["events_fired"] == run.events_fired
        assert bench["num_queries"] == run.num_queries
        assert bench["events_per_s"] == bench["events_fired"] / bench["run_s"]
        assert bench["wall_s"] == bench["trace_s"] + bench["run_s"]


class TestBaselineComparison:
    def _document(self):
        return {
            "schema": suite.SCHEMA_VERSION,
            "micro": {"event_core": {"events_per_s": 100_000.0}},
            "scenarios": {"paper-default": {"events_per_s": 50_000.0}},
        }

    def test_identical_runs_pass(self):
        document = self._document()
        assert suite.compare_to_baseline(document, copy.deepcopy(document)) == []

    def test_regression_beyond_threshold_fails(self):
        baseline = self._document()
        fresh = copy.deepcopy(baseline)
        fresh["scenarios"]["paper-default"]["events_per_s"] = 30_000.0
        failures = suite.compare_to_baseline(fresh, baseline)
        assert failures and "paper-default" in failures[0]

    def test_uniformly_slower_machine_passes(self):
        """A machine running everything 2x slower is not a regression."""
        baseline = self._document()
        fresh = copy.deepcopy(baseline)
        fresh["micro"]["event_core"]["events_per_s"] = 50_000.0
        fresh["scenarios"]["paper-default"]["events_per_s"] = 25_000.0
        assert suite.compare_to_baseline(fresh, baseline) == []

    def test_missing_scenario_fails(self):
        baseline = self._document()
        fresh = copy.deepcopy(baseline)
        del fresh["scenarios"]["paper-default"]
        failures = suite.compare_to_baseline(fresh, baseline)
        assert failures and "missing" in failures[0]

    def test_committed_baseline_loads_and_has_headline_scenario(self):
        baseline = suite.load_baseline()
        assert "paper-default" in baseline["scenarios"]
        assert baseline["scenarios"]["paper-default"]["events_per_s"] > 0


class TestCli:
    def test_perf_quick_writes_document(self, tmp_path):
        output = tmp_path / "BENCH_core.json"
        buffer = io.StringIO()
        code = cli.main(
            ["perf", "--quick", "--output", str(output), "--scenarios", "paper-default"],
            out=buffer,
        )
        assert code == 0
        document = json.loads(output.read_text())
        assert "paper-default" in document["scenarios"]

    def test_perf_check_against_self(self, tmp_path, monkeypatch):
        """--check against a baseline produced by the same configuration passes."""
        baseline = tmp_path / "baseline.json"
        buffer = io.StringIO()
        code = cli.main(
            ["perf", "--quick", "--output", str(baseline), "--scenarios", "paper-default"],
            out=buffer,
        )
        assert code == 0
        code = cli.main(
            [
                "perf", "--quick", "--scenarios", "paper-default",
                "--output", "-", "--check", "--baseline", str(baseline),
            ],
            out=io.StringIO(),
        )
        assert code == 0

    def test_perf_invalid_repeats_rejected(self):
        assert cli.main(["perf", "--repeats", "0"], out=io.StringIO()) == 2

    def test_unknown_scenario_is_a_usage_error_before_any_benchmark(self, monkeypatch, capsys):
        def fail(**_kwargs):
            raise AssertionError("the suite ran")

        monkeypatch.setattr("repro.perf.run_suite", fail)
        assert cli.main(["perf", "--quick", "--scenarios", "nope"], out=io.StringIO()) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: unknown scenario 'nope'")
        assert len(error.splitlines()) == 1

    def test_perf_help_renders(self, capsys):
        """argparse %-formats help strings: the threshold's '%' must be escaped."""
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["perf", "--help"], out=io.StringIO())
        assert exit_info.value.code == 0
        assert "regressions > 20%" in " ".join(capsys.readouterr().out.split())

    def test_update_baseline_with_check_rejected(self):
        """--update-baseline --check would vacuously compare a run to itself."""
        code = cli.main(
            ["perf", "--quick", "--update-baseline", "--check"], out=io.StringIO()
        )
        assert code == 2


class TestMemoryBudgets:
    """tracemalloc-based peak-allocation budgets for the memory-lean layers.

    Budgets are set ~2x above the measured values so they catch accidental
    re-introduction of per-event/per-record object churn, not allocator noise.
    """

    def test_trace_scheduling_is_leaner_than_batch_scheduling(self):
        result = suite.bench_memory_event_queue(50_000)
        for backend in ("heap", "calendar"):
            batch = result[f"{backend}_batch_peak_bytes_per_event"]
            trace = result[f"{backend}_trace_peak_bytes_per_event"]
            # The queue pays a handle and an entry per event ...
            assert batch > 100.0, (backend, batch)
            # ... a merged trace source allocates nothing per entry.
            assert trace < 1.0, (backend, trace)

    def test_trace_source_allocates_no_handle_per_query(self):
        from repro.sim.engine import Simulator

        sim = Simulator(seed=1, queue_backend="calendar")
        times = [float(i) * 0.01 for i in range(100_000)]
        sim.schedule_trace(times, lambda: None)
        # Nothing enters the queue: the column itself is the schedule.
        assert len(sim._queue) == 0 and sim._queue.heap_size == 0
        assert sim.pending_events == 100_000
        sim.run()
        assert sim.events_fired == 100_000

    def test_metric_reservoirs_are_allocation_bounded(self):
        result = suite.bench_memory_metrics(50_000)
        retained = result["retained_peak_bytes_per_record"]
        compact = result["compact_peak_bytes_per_record"]
        # Compact reservoirs must not scale with the query count.
        assert compact < 32.0, compact
        assert compact < retained / 4.0, (compact, retained)

    def test_memory_section_is_part_of_the_suite_document(self):
        document = suite.run_suite(scenarios=["paper-default"], quick=True)
        memory = document["memory"]
        assert set(memory) == {"event_queue", "metrics"}
        assert memory["metrics"]["compact_peak_bytes_per_record"] > 0


class TestPaperScaleSection:
    def test_paper_scale_is_not_part_of_the_default_suite(self):
        document = suite.run_suite(scenarios=["paper-default"], quick=True)
        assert "paper_scale" not in document

    def test_committed_baseline_has_the_paper_scale_section(self):
        baseline = suite.load_baseline()
        paper = baseline["paper_scale"]
        assert paper["scenario"] == suite.PAPER_SCALE_SCENARIO
        assert paper["num_queries"] > 500_000
        assert paper["events_per_s"] > 0
        assert paper["peak_rss_mb"] > 0

    def test_committed_paper_scale_run_is_blocked(self):
        """The run of record: measured through ``Session.run_system`` (one
        flower at a time), and nothing else beside it."""
        baseline = suite.load_baseline()
        paper = baseline["paper_scale"]
        assert paper["blocks"] == len(paper["block_fixed_ms"]) == 6
        # ms beyond a block's own sim.run, tearing down a 24 h flower included
        # (the 600-placement ring used to cost ~45 ms per block on its own)
        assert max(paper["block_fixed_ms"]) <= 30.0
        assert paper["peak_rss_mb"] <= 100.0
        assert not any(key.startswith("monolithic_") for key in paper)
        sharded = baseline["paper_scale_sharded"]
        assert sharded["events_fired"] == paper["events_fired"]
        assert "num_windows" not in sharded

    def test_paper_scale_scenario_excluded_from_regression_gate(self):
        """The per-PR gate never requires a minutes-long fresh run."""
        baseline = suite.load_baseline()
        assert suite.PAPER_SCALE_SCENARIO not in baseline.get("scenarios", {})

    def test_baseline_has_one_paper_scale_section(self):
        """One backend, one section: `paper_scale_kernel` was folded into it."""
        baseline = suite.load_baseline()
        assert "paper_scale_kernel" not in baseline
        assert "kernel" not in baseline["paper_scale"]

    def test_update_baseline_without_paper_scale_keeps_the_section(self, tmp_path):
        """`make perf-baseline` (no --paper-scale) must not drop paper_scale:
        the sections a run produced are merged into the committed document."""
        baseline = tmp_path / "BENCH_core.json"
        baseline.write_text(
            json.dumps({"schema": suite.SCHEMA_VERSION, "scenarios": {},
                        "micro": {}, "paper_scale": {"wall_s": 1.0},
                        "paper_scale_sharded": {"wall_s": 0.5}}),
            encoding="utf-8",
        )
        code = cli.main(
            ["perf", "--quick", "--update-baseline", "--baseline", str(baseline),
             "--scenarios", "paper-default", "--output", "-"],
            out=io.StringIO(),
        )
        assert code == 0
        refreshed = json.loads(baseline.read_text())
        assert refreshed["paper_scale"] == {"wall_s": 1.0}
        assert refreshed["paper_scale_sharded"] == {"wall_s": 0.5}
        assert "paper-default" in refreshed["scenarios"]
