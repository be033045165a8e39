"""The traced pass: per-layer metrics of one workload.

Runs in this process.  Every simulation job of the workload is run twice,
back to back — untraced, then under :func:`tracing.traced` — so the two see
the same machine conditions; their documents must be byte-identical and the
ratio of their times is the tracing overhead.  Span self times give the
layer seconds, :mod:`probes` the per-call costs of inner layers.
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.scenarios.library import get_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.service.jobs import canonical_scenario_payload, execute_request

from probes import noop, per_call, run_probes
from serviceload import JOB_SCALE, JOB_SCENARIO
from simjobs import (
    JobOutcome,
    feasible_seed,
    paper_spec,
    run_job,
    simulated_statistics,
    standard_batch_specs,
)
from tracing import TracedSimulator, Tracer, traced
from workloads import (
    Context,
    Metric,
    Report,
    block_median,
    phase_blocks,
    run_service_workload,
    service_job_seeds,
)

#: gates of the span accounting (share of traced wall)
MAX_UNATTRIBUTED = {"standard-batch": 0.10}
DEFAULT_MAX_UNATTRIBUTED = 0.05
MAX_OVERHEAD = 0.05
#: spans whose self time is the experiment driver's own work
DRIVER_SPANS = ("session.construct", "experiments.setup", "experiments.run_system")
#: core.* layers every workload reports: event classes, then set-up
CORE_EVENT_LAYERS = ("query", "gossip", "keepalive", "directory_tick")
CORE_SETUP_LAYERS = ("bootstrap",)
#: span names the contract's per-layer metrics are computed from; any other
#: span a run records is reported as a workload-only extra
COMMON_SPANS = frozenset(
    {"job", "sim.run", "sim.schedule_trace", "network.topology_build",
     "workload.generate_trace", "workload.assign_trace", "metrics.summarise",
     "scenarios.documents", *DRIVER_SPANS}
    | {f"core.{layer}" for layer in CORE_EVENT_LAYERS + CORE_SETUP_LAYERS}
)
#: sampled requests the service workload's in-harness trace runs
SERVICE_TRACED_JOBS = 5


def workload_jobs(ctx: Context, workload: str) -> List[Tuple[ScenarioSpec, int, float]]:
    """The ``(spec, seed, scale)`` simulation jobs a workload's trace covers."""
    if workload == "standard-batch":
        scale = ctx.sizes.batch_scale
        specs = standard_batch_specs(ctx.sizes.batch_names, scale)
        return [(spec, feasible_seed(spec, ctx.seed), scale) for spec in specs]
    if workload == "service-mixed":
        spec = get_scenario(JOB_SCENARIO).scaled(JOB_SCALE)
        seeds = service_job_seeds(ctx.seed, SERVICE_TRACED_JOBS)
        return [(spec, seed, JOB_SCALE) for seed in seeds]
    # paper-scale-sharded traces the same single-process run: the shard
    # engines run these layers, and the shard-only costs come from
    # Session.last_shard_stats below.
    spec = paper_spec(ctx.sizes)
    return [(spec, feasible_seed(spec, ctx.seed), 1.0)]


def run_traced(ctx: Context, workload: str) -> Report:
    """The per-layer pass of one workload."""
    try:
        return _run_traced(ctx, workload)
    finally:
        ctx.remove_scratch()


def _run_traced(ctx: Context, workload: str) -> Report:
    report = Report(workload)
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    events = trace_bytes = queries = 0
    memo = {"hits": 0, "misses": 0}
    blocked = 0.0
    first: Optional[JobOutcome] = None
    jobs = workload_jobs(ctx, workload)
    for spec, seed, scale in jobs:
        report.attempted += 1
        plain = run_job(spec, seed, scale=scale)
        plain_documents, plain_s = plain.documents, plain.job_s
        # A live 5000-host system makes every collection of the next run
        # slower: let the twin go before the traced run starts.
        del plain
        gc.collect()
        with traced(tracer):
            outcome = run_job(spec, seed, scale=scale, tracer=tracer)
        if outcome.documents != plain_documents:
            report.fail(f"{spec.name}: traced run's documents differ from its untraced twin")
        untraced_s += plain_s
        traced_s += outcome.job_s
        events += sum(system.run.events_fired for system in outcome.result.systems.values())
        trace = outcome.session.resolved_trace()
        trace_bytes += trace.nbytes
        queries += len(trace)
        info = outcome.session.experiment.topology.latency_cache_info()
        memo["hits"] += info["hits"]
        memo["misses"] += info["misses"]
        blocked += sum(
            system.metrics.get("resilience_messages_blocked", 0)
            for system in outcome.result.systems.values()
        )
        if first is None:
            first = outcome
    tracer.dump(ctx.out / f"trace-{workload}.json")  # overwritten by the next traced run

    totals = tracer.layer_totals()

    def seconds(*names: str) -> float:
        return sum(totals.get(name, (0.0, 0))[0] for name in names)

    def calls(name: str) -> int:
        return totals.get(name, (0.0, 0))[1]

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    run_s = sum(end - start for name, start, end, _p, _r in tracer.spans if name == "sim.run")
    unattributed = per(tracer.unattributed_s(), traced_s)
    overhead = per(traced_s, untraced_s) - 1.0
    metrics: Dict[str, Metric] = {
        "sim.run_s": (run_s, "s"),
        "sim.queue_self_s": (seconds("sim.run"), "s"),
        "sim.events_fired": (float(events), "count"),
        "sim.events_per_s": (per(events, run_s), "1/s"),
        "sim.queue_ns_per_event": (per(seconds("sim.run"), events) * 1e9, "ns"),
        "sim.schedule_trace_s": (seconds("sim.schedule_trace"), "s"),
    }
    for layer in CORE_EVENT_LAYERS + CORE_SETUP_LAYERS:
        metrics[f"core.{layer}_s"] = (seconds(f"core.{layer}"), "s")
        metrics[f"core.{layer}_calls"] = (float(calls(f"core.{layer}")), "count")
    for layer in CORE_EVENT_LAYERS[:2]:
        metrics[f"core.{layer}_us_per_call"] = (
            per(seconds(f"core.{layer}"), calls(f"core.{layer}")) * 1e6,
            "us",
        )
    metrics.update({
        "network.topology_build_s": (seconds("network.topology_build"), "s"),
        "network.latency_memo_hits": (float(memo["hits"]), "count"),
        "network.latency_memo_misses": (float(memo["misses"]), "count"),
        "network.latency_memo_hit_ratio": (
            per(memo["hits"], memo["hits"] + memo["misses"]),
            "ratio",
        ),
        "workload.generate_trace_s": (seconds("workload.generate_trace"), "s"),
        "workload.assign_trace_s": (seconds("workload.assign_trace"), "s"),
        "workload.trace_bytes_per_query": (per(trace_bytes, queries), "B"),
        "metrics.summarise_s": (seconds("metrics.summarise"), "s"),
        "scenarios.documents_s": (seconds("scenarios.documents"), "s"),
        "experiments.driver_self_s": (seconds(*DRIVER_SPANS), "s"),
        "trace.overhead_share": (overhead, "ratio"),
        "trace.unattributed_share": (unattributed, "ratio"),
    })
    metrics.update(simulated_statistics(first))
    metrics.update(
        run_probes(
            first.session.spec,
            ctx.seed,
            first.documents,
            ctx.scratch("probes"),
            ctx.sizes.probe_s,
        )
    )
    metrics["cli.startup_s"] = (_cli_startup_s(ctx), "s")
    span_cost_s = _span_cost_s(ctx.sizes.probe_s)
    metrics["trace.span_cost_ns"] = (span_cost_s * 1e9, "ns")
    report.metrics = metrics

    limit = MAX_UNATTRIBUTED.get(workload, DEFAULT_MAX_UNATTRIBUTED)
    if unattributed > limit:
        report.fail(f"trace.unattributed_share {unattributed:.4f} exceeds {limit}")
    # The measured overhead above is one pair of runs on a noisy box; the gate
    # uses what the wrappers must have cost: event spans x probed span cost.
    expected_overhead = per(tracer.event_calls() * span_cost_s, untraced_s)
    report.extras["trace.expected_overhead_share"] = (expected_overhead, "ratio")
    if expected_overhead > MAX_OVERHEAD:
        report.fail(f"trace.expected_overhead_share {expected_overhead:.4f} exceeds "
                    f"{MAX_OVERHEAD}")
    # Spans only some workloads have: the baseline, the churn/fault models,
    # the replication extension, labels the tracer does not know.
    for name, (self_s, count) in sorted(totals.items()):
        if name not in COMMON_SPANS:
            report.extras[f"{name}_s"] = (self_s, "s")
            report.extras[f"{name}_calls"] = (float(count), "count")
    if blocked:
        report.extras["network.reachability_blocked"] = (blocked, "count")
    report.extras["trace.untraced_wall_s"] = (untraced_s, "s")
    report.extras["trace.traced_wall_s"] = (traced_s, "s")

    if workload == "paper-scale-sharded":
        _sharded_layers(ctx, report, first, untraced_s)
    if workload == "service-mixed":
        _service_layers(ctx, report)
    return report


def _span_cost_s(sample_s: float) -> float:
    """What one event span adds to a callback: wrapped minus bare no-op call."""
    simulator = type("ProbeSimulator", (TracedSimulator,), {"tracer": Tracer()})()
    wrapped = simulator._wrap(noop, "query")

    def calls(callback: Callable[[], None]) -> Callable[[int], int]:
        def body(n: int) -> int:
            for _ in range(n):
                callback()
            return n

        return body

    return max(0.0, per_call(calls(wrapped), sample_s) - per_call(calls(noop), sample_s))


def _cli_startup_s(ctx: Context) -> float:
    """Best of ``min(3, sizes.boots)`` ``python -m repro.cli scenarios list`` runs."""
    samples = []
    for _ in range(min(3, ctx.sizes.boots)):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "scenarios", "list"],
            env=dict(os.environ, PYTHONPATH=str(ctx.src)),
            stdout=subprocess.DEVNULL,
            check=True,
            timeout=60.0,
        )
        samples.append(time.perf_counter() - started)
    return min(samples)


def _sharded_layers(ctx: Context, report: Report, single: JobOutcome, single_s: float) -> None:
    """``sim.sharded.*`` from the public ``Session.last_shard_stats``."""
    report.attempted += 1
    started = time.perf_counter()
    sharded = run_job(single.session.spec, single.session.seed, shards=2, shard_jobs=2)
    sharded_s = time.perf_counter() - started
    if sharded.documents["digest.json"] != single.documents["digest.json"]:
        report.fail("sharded digest.json differs from the single-process run")
    stats = sharded.session.last_shard_stats
    setup, dispatch = stats.setup_s_per_shard, stats.dispatch_s_per_shard
    slowest_shard_s = max(s + d for s, d in zip(setup, dispatch))
    report.extras.update({
        "sim.sharded.pool_wall_s": (stats.wall_s, "s"),
        "sim.sharded.setup_s_max": (max(setup), "s"),
        "sim.sharded.dispatch_s_max": (stats.critical_path_s, "s"),
        "sim.sharded.dispatch_s_sum": (sum(dispatch), "s"),
        # fork, pickling, barrier bookkeeping and the pool's teardown: what
        # the pool cost beyond its slowest shard's own set-up + dispatch
        "sim.sharded.overhead_s": (stats.wall_s - slowest_shard_s, "s"),
        "sim.sharded.num_windows": (float(stats.num_windows), "count"),
        "sim.sharded.imbalance": (max(dispatch) / statistics.mean(dispatch), "ratio"),
        # base: this pass's untraced single-process job, seconds
        "sim.sharded.speedup_vs_single": (single_s / sharded_s, "ratio"),
    })


def _service_layers(ctx: Context, report: Report) -> None:
    """``service.*`` layers of a live (smaller) cold + hot cycle."""
    live, run = run_service_workload(ctx, traced=True)
    report.attempted += live.attempted
    report.failed += live.failed
    report.problems += live.problems
    if run is None or not run.cold.samples or not run.hot.samples:
        return
    cold = run.cold.samples
    job_run_ms = statistics.median(s.job_run_s for s in cold) * 1e3

    spec = get_scenario(JOB_SCENARIO)
    executions: List[float] = []
    for job_seed in service_job_seeds(ctx.seed, 4):
        payload = canonical_scenario_payload(spec, seed=job_seed, scale=JOB_SCALE)
        started = time.perf_counter()
        execute_request(payload)
        executions.append((time.perf_counter() - started) * 1e3)
    del executions[0]  # the first call pays this process's lazy imports
    execute_ms = statistics.median(executions)

    first_touch = [s.latency_s * 1e3 for s in run.hot.samples if s.index < len(cold)]
    hot = phase_blocks(run.hot, run.calibration)
    report.extras.update({
        "service.queue_wait_p50_ms": (
            statistics.median(s.queue_wait_s for s in cold) * 1e3, "ms"),
        "service.job_run_p50_ms": (job_run_ms, "ms"),
        "service.respond_p50_ms": (
            statistics.median(s.latency_s - s.queue_wait_s - s.job_run_s for s in cold) * 1e3,
            "ms",
        ),
        "service.execute_request_ms": (execute_ms, "ms"),
        "service.fork_publish_overhead_ms": (job_run_ms - execute_ms, "ms"),
        "service.drain_s": (statistics.median(run.drains_s), "s"),
        "service.http_floor_ms": (statistics.median(run.http_floor_s) * 1e3, "ms"),
        "service.store_hit_req_p50_ms": (statistics.median(first_touch), "ms"),
        "service.hot_req_p99_ms": (block_median(hot, "p99_s") * 1e3, "ms"),
        "service.cache_hit_ratio": (float(run.hot_counters["hit_ratio"]), "ratio"),
        "service.store_bytes": (float(run.hot_counters["store_bytes"]), "B"),
    })
