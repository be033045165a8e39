"""Tier-1 tests of the end-to-end benchmark harness (``benchmarks/e2e``).

One ``run.py --smoke`` invocation exercises every workload path (tiny inline
spec, two standard scenarios at scale 0.25, 6 cold / 100 hot requests) and
must emit exactly the metrics ``BENCHMARK.json`` declares; the tracer must be
digest-neutral and account for every fired event.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [path for path in (str(ROOT / "src"), str(HERE)) if path not in sys.path]

from repro.scenarios.library import get_scenario  # noqa: E402
from repro.sim.engine import TRACE_CHUNK_SIZE  # noqa: E402
from simjobs import run_job  # noqa: E402
from tracing import EVENT_LAYERS, Tracer, traced  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


@pytest.fixture(scope="module")
def smoke_summary():
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "7"],
        capture_output=True, text=True, timeout=170,
    )
    assert process.returncode == 0, process.stdout[-3000:] + process.stderr[-3000:]
    return json.loads(process.stdout.strip().splitlines()[-1]), process.stdout


class TestContractDocument:
    def test_keys_names_and_bounds(self):
        assert sorted(CONTRACT) == sorted(
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        )
        assert CONTRACT["paths"] == ["benchmarks/e2e"]
        assert WORKLOADS == [
            "paper-scale", "standard-batch", "paper-scale-sharded", "service-mixed"
        ]
        names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]] + WORKLOADS
        assert len(names) == len(set(names))
        assert all(NAME.match(name) for name in names)
        assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
        assert "setup_s" in {m["name"] for m in CONTRACT["end_to_end"]}


class TestSmokeRun:
    def test_every_declared_metric_once_with_its_unit(self, smoke_summary):
        summary, _stdout = smoke_summary
        assert summary["ops_failed"] == 0
        assert list(summary["workloads"]) == WORKLOADS
        for workload, entry in summary["workloads"].items():
            for section, declared in (
                ("end_to_end", CONTRACT["end_to_end"]), ("per_layer", CONTRACT["per_layer"])
            ):
                emitted = entry[section]["metrics"]
                assert {n: m["unit"] for n, m in emitted.items()} == {
                    m["name"]: m["unit"] for m in declared
                }, (workload, section)
                assert entry[section]["ops_total"] >= 1
            for extra in {**entry["end_to_end"]["only_here"], **entry["per_layer"]["only_here"]}:
                assert NAME.match(extra), extra

    def test_end_to_end_metrics_are_never_zero(self, smoke_summary):
        summary, _stdout = smoke_summary
        for entry in summary["workloads"].values():
            assert all(m["value"] > 0 for m in entry["end_to_end"]["metrics"].values())

    def test_metrics_printed_by_name_and_no_claim(self, smoke_summary):
        summary, stdout = smoke_summary
        assert "claim" in summary and summary["claim"] is None
        assert list(summary)[-1] == "claim"
        for metric in CONTRACT["end_to_end"]:
            assert re.search(rf"^e2e\s+service-mixed\s+{metric['name']}\s", stdout, re.M)
        assert re.search(r"^e2e\s+paper-scale\s+ops_failed\s+0 count$", stdout, re.M)

    def test_workload_only_layers_are_reported(self, smoke_summary):
        summary, _stdout = smoke_summary
        layers = {w: e["per_layer"]["only_here"] for w, e in summary["workloads"].items()}
        assert "sim.sharded.overhead_s" in layers["paper-scale-sharded"]
        assert "service.queue_wait_p50_ms" in layers["service-mixed"]
        assert "baselines.squirrel_query_s" in layers["standard-batch"]
        assert "hot_req_p50_ms" in summary["workloads"]["service-mixed"]["end_to_end"]["only_here"]


class TestContractMode:
    def test_last_line_is_the_contract_object(self):
        process = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "paper-scale", "--seed", "3",
             "--seconds", "1", "--trace", "0", "--smoke"],
            capture_output=True, text=True, timeout=120,
        )
        assert process.returncode == 0, process.stderr[-2000:]
        line = json.loads(process.stdout.strip().splitlines()[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in CONTRACT["end_to_end"]]

    def test_refuses_to_run_without_the_program(self, tmp_path):
        # Only BENCHMARK.json and the benchmark's own files: no src/.
        stripped = tmp_path / "benchmarks" / "e2e"
        stripped.mkdir(parents=True)
        for path in HERE.glob("*.py"):
            (stripped / path.name).write_bytes(path.read_bytes())
        (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
        process = subprocess.run(
            [sys.executable, "benchmarks/e2e/run.py", "--workload", "paper-scale", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert process.returncode != 0
        assert not process.stdout.strip()


@pytest.mark.parametrize(
    "name", ["paper-default", "heavy-churn", "locality-partition", "squirrel-head-to-head"]
)
def test_tracer_is_digest_neutral_and_accounts_for_every_event(name):
    spec = get_scenario(name).scaled(0.25)
    plain = run_job(spec, 42, scale=0.25)
    tracer = Tracer()
    with traced(tracer):
        outcome = run_job(spec, 42, scale=0.25, tracer=tracer)
    assert outcome.documents == plain.documents  # result.json included, byte for byte

    fired = sum(system.run.events_fired for system in outcome.result.systems.values())
    feeders = sum(
        int(system.metrics["num_queries"]) // TRACE_CHUNK_SIZE
        for system in outcome.result.systems.values()
    )
    if spec.churn.is_enabled:
        # a cancelled periodic handle still fires once, without its callback
        assert tracer.event_calls() + feeders <= fired
    else:
        assert tracer.event_calls() + feeders == fired
    known = set(EVENT_LAYERS.values()) | {"baselines.squirrel_query"}
    for _parent, _run, layers in tracer.event_logs:
        assert set(layers) <= known
    assert tracer.unattributed_s() < 0.05 * outcome.job_s


def test_unknown_label_counts_as_unattributed():
    tracer = Tracer()
    with traced(tracer):
        import repro.experiments.driver as driver

        sim = driver.Simulator(seed=1)
        sim.call_every(1.0, lambda: None, label="brand-new-label:peer-1")
        with tracer.span("job"):
            sim.run(until=10.0)
    assert "unknown.brand-new-label" in tracer.layer_totals()
    assert tracer.unattributed_s() > 0.0
