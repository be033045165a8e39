"""The perf-benchmark suite behind ``repro perf``.

Two tiers of benchmarks feed one JSON document (``BENCH_core.json``):

* **micro** — tight loops over the hot primitives: event scheduling/dispatch,
  event cancellation + heap compaction, the topology latency cache and the
  Zipf sampler.  These isolate layer-level regressions.
* **scenarios** — named library scenarios timed as ``Session`` runs them
  (:func:`bench_run`): ``events_per_s`` / ``queries_per_s`` over
  ``session.run_system(system)``, ``wall_s`` with the trace construction.

All numbers are best-of-``repeats`` (the standard way to suppress scheduler
noise in wall-clock benchmarks).  ``python -m repro.cli perf --check``
compares a fresh run against the committed baseline and fails on events/sec
regressions beyond :data:`REGRESSION_THRESHOLD`; to compensate for machine
speed differences (laptop vs CI runner) the comparison is performed on
*calibrated* ratios — scenario events/sec divided by the event-core
microbenchmark events/sec of the same run — so only relative slowdowns of
the simulation code trip the gate, not a slower machine.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.metrics.collectors import MetricsCollector, QueryOutcome
from repro.network.topology import Topology, TopologyConfig
from repro.session import Session
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.sharded import BlockTally
from repro.workload.zipf import ZipfSampler

#: schema version of BENCH_core.json
SCHEMA_VERSION = 3
#: scenarios benchmarked by default (paper-default is the headline)
DEFAULT_SCENARIOS = ("paper-default", "flash-crowd")
#: the scenario whose Squirrel system the baseline-replay benchmark times
SQUIRREL_SCENARIO = "squirrel-head-to-head"
#: the scenario the --paper-scale benchmark runs
PAPER_SCALE_SCENARIO = "paper-default-full-scale"
#: relative events/sec regression that fails the CI gate
REGRESSION_THRESHOLD = 0.20
#: the committed baseline of this checkout
DEFAULT_BASELINE_PATH = (
    Path(__file__).resolve().parents[3] / "benchmarks" / "perf" / "BENCH_core.json"
)


def _peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (0.0 when unavailable).

    ``ru_maxrss`` is kilobytes on Linux but **bytes** on macOS.
    """
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


# -- micro benchmarks ---------------------------------------------------------


def bench_event_core(num_events: int = 100_000, repeats: int = 3) -> Dict[str, float]:
    """Schedule and dispatch ``num_events`` trivial events; events/sec.

    ``events_per_s`` goes through the queue (``schedule_batch``: one handle
    and one heap entry per event — the figure the regression gate calibrates
    against); ``trace_events_per_s`` feeds the same times as a merged trace
    source (``schedule_trace``: no handle, no heap entry).
    """
    best = best_trace = 0.0
    times = [float(i) for i in range(num_events)]
    for _ in range(repeats):
        sim = Simulator(seed=1)
        callback = _noop
        start = time.perf_counter()
        sim.schedule_batch(((t, callback) for t in times))
        sim.run()
        elapsed = time.perf_counter() - start
        best = max(best, num_events / elapsed)
        sim = Simulator(seed=1)
        start = time.perf_counter()
        sim.schedule_trace(times, callback)
        sim.run()
        elapsed = time.perf_counter() - start
        best_trace = max(best_trace, num_events / elapsed)
    return {
        "events_per_s": best,
        "trace_events_per_s": best_trace,
        "num_events": num_events,
    }


def _noop() -> None:
    return None


def bench_event_cancellation(num_events: int = 50_000, repeats: int = 3) -> Dict[str, float]:
    """Push/cancel churn exercising lazy deletion and heap compaction."""
    best = 0.0
    for _ in range(repeats):
        sim = Simulator(seed=1)
        queue = sim._queue
        start = time.perf_counter()
        handles = [queue.push(float(i), _noop) for i in range(num_events)]
        for handle in handles[:: 2]:
            queue.cancel(handle)
        while queue.pop() is not None:
            pass
        elapsed = time.perf_counter() - start
        best = max(best, num_events / elapsed)
    return {"ops_per_s": best, "num_events": num_events}


def bench_periodic_rescheduling(
    periods: int = 50_000, repeats: int = 3
) -> Dict[str, float]:
    """call_every fast-path rescheduling throughput (fires/sec)."""
    best = 0.0
    for _ in range(repeats):
        sim = Simulator(seed=1)
        sim.call_every(1.0, _noop)
        start = time.perf_counter()
        sim.run(until=float(periods))
        elapsed = time.perf_counter() - start
        best = max(best, periods / elapsed)
    return {"fires_per_s": best, "periods": periods}


def bench_latency_cache(
    num_hosts: int = 500, num_queries: int = 200_000, repeats: int = 3
) -> Dict[str, float]:
    """Repeated symmetric pair queries against the topology latency memo."""
    topology = Topology(
        TopologyConfig(num_hosts=num_hosts, num_localities=3), RandomStreams(7)
    )
    # A small working set of pairs, queried round-robin: the memo-hit regime
    # the simulation lives in.
    pairs = [((i * 13) % num_hosts, (i * 31 + 7) % num_hosts) for i in range(1024)]
    best = 0.0
    for _ in range(repeats):
        latency_ms = topology.latency_ms
        start = time.perf_counter()
        index = 0
        for _ in range(num_queries):
            a, b = pairs[index]
            latency_ms(a, b)
            index = (index + 1) & 1023
        elapsed = time.perf_counter() - start
        best = max(best, num_queries / elapsed)
    info = topology.latency_cache_info()
    return {
        "queries_per_s": best,
        "num_queries": num_queries,
        "cache_hits": info["hits"],
        "cache_misses": info["misses"],
    }


def bench_zipf(
    population: int = 10_000, draws: int = 200_000, repeats: int = 3
) -> Dict[str, float]:
    """Draws/sec of the sampler over a large rank population."""
    import random as _random

    sampler = ZipfSampler(population, 0.8)
    best = 0.0
    for _ in range(repeats):
        rng = _random.Random(3)
        start = time.perf_counter()
        sampler.sample_many(rng, draws)
        elapsed = time.perf_counter() - start
        best = max(best, draws / elapsed)
    return {"draws_per_s": best, "population": population, "draws": draws}


# -- run benchmarks -----------------------------------------------------------


def bench_run(
    name: str, scale: float = 1.0, system: str = "flower", shards: int = 1, repeats: int = 1
) -> Dict[str, object]:
    """Time one system of a library scenario the way ``Session`` runs it.

    ``trace_s`` is ``session.resolved_trace()`` (environment + trace
    construction), ``run_s`` is ``session.run_system(system)`` — build,
    attach, replay and tear down every block, then the fold — and
    ``events_per_s`` / ``queries_per_s`` are over ``run_s``.  A run cut into
    blocks adds its census (``blocks``, ``block_fixed_ms``: what each block
    cost beyond its own ``sim.run``, ``dispatch_s``: those ``sim.run``
    calls); a run placed over ``shards > 1`` workers adds its
    :class:`~repro.sim.sharded.ShardRunStats` (``critical_path_s``: the
    slowest worker's dispatch, the bound ``N`` cores approach).  The fastest
    of ``repeats`` runs is reported.
    """
    fastest = None
    for _ in range(repeats):
        session = Session.from_name(name, scale=scale, shards=shards)
        started = time.perf_counter()
        session.resolved_trace()
        trace_s = time.perf_counter() - started
        run = session.run_system(system)
        run_s = time.perf_counter() - started - trace_s
        if fastest is None or run_s < fastest[0]:
            fastest = run_s, trace_s, run, session
    run_s, trace_s, run, session = fastest
    result: Dict[str, object] = {
        "scenario": name,
        "scale": scale,
        "events_per_s": run.events_fired / run_s,
        "queries_per_s": run.num_queries / run_s,
        "trace_s": trace_s,
        "run_s": run_s,
        "wall_s": trace_s + run_s,
        "events_fired": run.events_fired,
        "num_queries": run.num_queries,
        "hit_ratio": run.hit_ratio,
    }
    census = session.experiment.last_flower_system
    if isinstance(census, BlockTally):
        result["blocks"] = len(census.fixed_s)
        result["block_fixed_ms"] = [round(fixed_s * 1e3, 2) for fixed_s in census.fixed_s]
        result["dispatch_s"] = census.dispatch_s
    stats = session.last_shard_stats
    if stats is not None:
        result["shards"] = shards
        result["critical_path_s"] = stats.critical_path_s
        result["setup_s_max"] = max(stats.setup_s_per_shard)
        result["pool_wall_s"] = stats.wall_s
    return result


def _run_isolated(name: str, shards: int = 1) -> Dict[str, object]:
    """:func:`bench_run` of ``name`` in a fresh child process, plus its
    ``peak_rss_mb`` — which then measures that run alone (``ru_maxrss`` is
    monotone: in this process it would include every earlier suite section).
    """
    src_root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    code = (
        "import json\nfrom repro.perf import suite\n"
        f"result = suite.bench_run({name!r}, shards={shards!r})\n"
        "print(json.dumps(dict(result, peak_rss_mb=suite._peak_rss_mb())))\n"
    )
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    if child.returncode != 0:
        raise RuntimeError(f"isolated bench_run({name!r}, shards={shards}) failed:\n{child.stderr}")
    return json.loads(child.stdout.strip().splitlines()[-1])


# -- memory benchmarks --------------------------------------------------------


def _traced_peak(fn) -> int:
    """Peak tracemalloc bytes allocated while running ``fn``."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def bench_memory_event_queue(num_events: int = 50_000) -> Dict[str, float]:
    """Peak bytes per scheduled event: queued handles vs a merged trace source."""
    results: Dict[str, float] = {"num_events": num_events}
    times = [float(i) for i in range(num_events)]
    for backend in ("heap", "calendar"):
        sim = Simulator(seed=1, queue_backend=backend)
        peak = _traced_peak(
            lambda sim=sim: (sim.schedule_batch((t, _noop) for t in times), sim.run())
        )
        results[f"{backend}_batch_peak_bytes_per_event"] = peak / num_events
        sim = Simulator(seed=1, queue_backend=backend)
        peak = _traced_peak(
            lambda sim=sim: (sim.schedule_trace(times, _noop), sim.run())
        )
        results[f"{backend}_trace_peak_bytes_per_event"] = peak / num_events
    return results


def bench_memory_metrics(num_records: int = 100_000) -> Dict[str, float]:
    """Peak bytes per recorded query: retained columns vs compact reservoirs.

    Rows are recorded exactly as ``process_query`` does — scalars in, no
    record object — so the retained mode pays for its columns while the
    compact mode truncates them at each fold.
    """
    results: Dict[str, float] = {"num_records": num_records}
    hit, miss = QueryOutcome.LOCAL_OVERLAY_HIT, QueryOutcome.SERVER_MISS
    for label, retain in (("retained", True), ("compact", False)):
        collector = MetricsCollector(window_s=3600.0, retain_records=retain)

        def fill(collector=collector):
            record_row = collector.record_row
            for i in range(num_records):
                record_row(
                    i,
                    float(i),
                    "site-000.example.org",
                    i % 3,
                    hit if i % 3 else miss,
                    float(i % 400),
                    float(i % 200),
                )
            collector.hit_ratio  # force the final fold

        results[f"{label}_peak_bytes_per_record"] = _traced_peak(fill) / num_records
    return results


def run_memory_suite(quick: bool = False) -> Dict[str, Dict[str, float]]:
    """The ``memory`` section of BENCH_core.json (tracemalloc-based, untimed)."""
    if quick:
        return {
            "event_queue": bench_memory_event_queue(5_000),
            "metrics": bench_memory_metrics(10_000),
        }
    return {
        "event_queue": bench_memory_event_queue(),
        "metrics": bench_memory_metrics(),
    }


# -- the suite ----------------------------------------------------------------


def run_suite(
    scenarios: Sequence[str] = DEFAULT_SCENARIOS,
    scale: float = 1.0,
    repeats: int = 3,
    quick: bool = False,
    paper_scale: bool = False,
    shards: int = 0,
) -> Dict[str, object]:
    """Run the whole suite and return the ``BENCH_core.json`` document.

    ``quick`` shrinks every workload (used by the pytest smoke tests and the
    CI smoke job) — the numbers stay comparable in *shape*, not magnitude.
    ``paper_scale`` additionally runs the full Table 1 scenario end to end
    (minutes — the nightly job's tier); ``shards >= 2`` with it places the
    same run's blocks over that many worker processes as the
    ``paper_scale_sharded`` section.
    """
    if quick:
        micro = {
            # event_core calibrates the regression gate's ratios: it and the
            # scenario benches below keep the caller's best-of-N (default 3)
            # even in quick mode, or single-run noise trips the 20% gate.
            # An explicit --repeats is honoured.
            "event_core": bench_event_core(10_000, repeats=repeats),
            "event_cancellation": bench_event_cancellation(5_000, repeats=1),
            "periodic_rescheduling": bench_periodic_rescheduling(5_000, repeats=1),
            "latency_cache": bench_latency_cache(120, 20_000, repeats=1),
            "zipf": bench_zipf(1_000, 20_000, repeats=1),
        }
        scale = min(scale, 0.25)
    else:
        micro = {
            "event_core": bench_event_core(repeats=repeats),
            "event_cancellation": bench_event_cancellation(repeats=repeats),
            "periodic_rescheduling": bench_periodic_rescheduling(repeats=repeats),
            "latency_cache": bench_latency_cache(repeats=repeats),
            "zipf": bench_zipf(repeats=repeats),
        }
    scenario_results = {
        name: bench_run(name, scale=scale, repeats=repeats) for name in scenarios
    }
    # The Squirrel baseline over the same trace, under its own key, so
    # Chord-routing or directory-path regressions trip the calibrated gate too.
    scenario_results[f"{SQUIRREL_SCENARIO}:squirrel"] = bench_run(
        SQUIRREL_SCENARIO, scale=scale, system="squirrel", repeats=repeats
    )
    document: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "python": platform.python_version(),
        "repeats": repeats,
        "quick": quick,
        "micro": micro,
        "scenarios": scenario_results,
        "memory": run_memory_suite(quick=quick),
    }
    if paper_scale:
        # Kept under its own key (not "scenarios") so the per-PR regression
        # gate never requires a minutes-long fresh run to compare against.
        document["paper_scale"] = _run_isolated(PAPER_SCALE_SCENARIO)
        if shards >= 2:
            document["paper_scale_sharded"] = _run_isolated(PAPER_SCALE_SCENARIO, shards)
    return document


# -- baseline comparison ------------------------------------------------------


def compare_to_baseline(
    fresh: Dict[str, object],
    baseline: Dict[str, object],
    threshold: float = REGRESSION_THRESHOLD,
) -> List[str]:
    """Regression check of ``fresh`` against ``baseline``; empty list = pass.

    Scenario events/sec are compared as *calibrated ratios* (scenario
    events/sec ÷ event-core micro events/sec of the same document), so a
    uniformly slower machine does not read as a regression — only simulation
    code that got slower relative to the interpreter does.
    """
    failures: List[str] = []
    fresh_core = _core_events_per_s(fresh)
    base_core = _core_events_per_s(baseline)
    if not fresh_core or not base_core:
        return ["baseline or fresh run lacks the event_core microbenchmark"]
    fresh_scenarios = fresh.get("scenarios", {})
    for name, base_result in baseline.get("scenarios", {}).items():
        fresh_result = fresh_scenarios.get(name)
        if fresh_result is None:
            failures.append(f"{name}: missing from the fresh run")
            continue
        base_ratio = float(base_result["events_per_s"]) / base_core
        fresh_ratio = float(fresh_result["events_per_s"]) / fresh_core
        if fresh_ratio < base_ratio * (1.0 - threshold):
            failures.append(
                f"{name}: calibrated events/sec regressed "
                f"{(1.0 - fresh_ratio / base_ratio) * 100.0:.1f}% "
                f"(baseline ratio {base_ratio:.4f}, fresh ratio {fresh_ratio:.4f}, "
                f"threshold {threshold * 100.0:.0f}%)"
            )
    return failures


def _core_events_per_s(document: Dict[str, object]) -> Optional[float]:
    try:
        return float(document["micro"]["event_core"]["events_per_s"])  # type: ignore[index]
    except (KeyError, TypeError, ValueError):
        return None


def load_baseline(path: Path = DEFAULT_BASELINE_PATH) -> Dict[str, object]:
    if not path.exists():
        raise FileNotFoundError(
            f"no committed perf baseline at {path}; run "
            f"`python -m repro.cli perf --update-baseline` to create it"
        )
    return json.loads(path.read_text(encoding="utf-8"))


def write_document(document: Dict[str, object], path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
