"""The perf-benchmark suite behind ``repro perf``.

Two tiers of benchmarks feed one JSON document (``BENCH_core.json``):

* **micro** — tight loops over the hot primitives: event scheduling/dispatch,
  event cancellation + heap compaction, the topology latency cache, and both
  Zipf sampling strategies.  These isolate layer-level regressions.
* **scenarios** — named library scenarios run end to end.  Two phases are
  timed separately per scenario:

  - ``events_per_s`` / ``queries_per_s``: throughput of the *event-dispatch
    phase* (registering the resolved trace + running the simulator to the
    horizon) — the standard events/sec figure of a discrete-event engine;
  - ``wall_s``: the complete scenario execution (environment + trace
    construction + dispatch + metric finalisation), the number a user waits
    for.

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
from repro.scenarios.library import get_scenario
from repro.session import Session
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.zipf import ZipfSampler

#: schema version of BENCH_core.json
SCHEMA_VERSION = 2
#: scenarios benchmarked by default (paper-default is the headline)
DEFAULT_SCENARIOS = ("paper-default", "flash-crowd")
#: the scenario whose Squirrel system the baseline-replay benchmark times
SQUIRREL_SCENARIO = "squirrel-head-to-head"
#: the scenario the --paper-scale benchmark runs
PAPER_SCALE_SCENARIO = "paper-default-full-scale"
#: relative events/sec regression that fails the CI gate
REGRESSION_THRESHOLD = 0.20
#: environment override for the committed baseline location
BASELINE_PATH_ENV = "REPRO_PERF_BASELINE"


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


def default_baseline_path() -> Path:
    """``benchmarks/perf/BENCH_core.json`` of this checkout (env-overridable)."""
    override = os.environ.get(BASELINE_PATH_ENV)
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "benchmarks" / "perf" / "BENCH_core.json"


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
    # A small working set of pairs, queried round-robin: the cache-hit regime
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
    """Draws/sec of both sampling strategies over a large rank population."""
    import random as _random

    results: Dict[str, float] = {"population": population, "draws": draws}
    for method in ("alias", "cdf"):
        sampler = ZipfSampler(population, 0.8, method=method)
        best = 0.0
        for _ in range(repeats):
            rng = _random.Random(3)
            start = time.perf_counter()
            sampler.sample_many(rng, draws)
            elapsed = time.perf_counter() - start
            best = max(best, draws / elapsed)
        results[f"{method}_draws_per_s"] = best
    return results


# -- scenario benchmarks ------------------------------------------------------


def bench_scenario(
    name: str, scale: float = 1.0, repeats: int = 3, system: str = "flower"
) -> Dict[str, float]:
    """End-to-end benchmark of one system of one library scenario.

    The event-dispatch phase (trace registration + simulator run) is timed
    separately from the full execution; events/sec and queries/sec are
    defined over the dispatch phase, ``wall_s`` over the whole thing.
    ``system="squirrel"`` replays the exact same resolved trace through the
    baseline, so its events/sec are directly comparable — and regressions in
    the Chord routing or directory path trip the same calibrated gate.
    """
    spec = get_scenario(name)
    if scale != 1.0:
        spec = spec.scaled(scale)
    best_events_per_s = 0.0
    best_queries_per_s = 0.0
    best_wall = float("inf")
    events_fired = 0
    num_queries = 0
    for _ in range(repeats):
        session = Session.from_spec(spec)
        total_start = time.perf_counter()
        trace = session.resolved_trace()  # environment + trace construction
        injectors = []
        if system == "flower":
            sim, cdn = session.build_flower()
            # Attach the spec's churn/fault models through the same Session
            # API run_system uses, so program scenarios benchmark what they
            # execute.
            injectors = session.attach_models(cdn)
        else:
            sim, cdn = session.experiment.build_squirrel()
        for injector in injectors:
            injector.start()
        dispatch_start = time.perf_counter()
        sim.schedule_trace(trace.times, trace.replayer(cdn.process_query), label="query")
        sim.run(until=spec.duration_s)
        dispatch_elapsed = time.perf_counter() - dispatch_start
        for injector in reversed(injectors):
            injector.stop()
        # Metric finalisation is part of the full wall clock.
        cdn.metrics.hit_ratio
        if system == "flower":
            cdn.bandwidth.average_bps_per_peer(spec.duration_s)
        total_elapsed = time.perf_counter() - total_start
        events_fired = sim.events_fired
        num_queries = cdn.metrics.num_queries
        best_events_per_s = max(best_events_per_s, events_fired / dispatch_elapsed)
        best_queries_per_s = max(best_queries_per_s, num_queries / dispatch_elapsed)
        best_wall = min(best_wall, total_elapsed)
    return {
        "events_per_s": best_events_per_s,
        "queries_per_s": best_queries_per_s,
        "wall_s": best_wall,
        "events_fired": events_fired,
        "num_queries": num_queries,
        "scale": scale,
    }


def _run_isolated(call: str) -> Optional[Dict[str, float]]:
    """Evaluate ``repro.perf.suite.<call>`` in a fresh child process.

    ``peak_rss_mb`` then measures that run rather than the process-lifetime
    maximum (``ru_maxrss`` is monotone, so an in-process measurement would
    include whatever suite sections ran earlier).  ``None`` if the child
    cannot be spawned: the caller falls back to the inline run.
    """
    src_root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    code = f"import json\nfrom repro.perf import suite\nprint(json.dumps(suite.{call}))\n"
    try:
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        return json.loads(child.stdout.strip().splitlines()[-1])
    except (OSError, subprocess.CalledProcessError, ValueError, IndexError):
        return None


def bench_paper_scale(
    name: str = PAPER_SCALE_SCENARIO, isolate: bool = False
) -> Dict[str, float]:
    """One end-to-end paper-scale run with wall-clock and memory accounting.

    Runs the scenario exactly as ``repro scenarios run`` would —
    ``Session.run()``: one website's flower at a time over one environment
    (the spec pins the calendar backend and compact metrics) — and reports
    peak RSS plus the run's own per-block account (its census):
    ``dispatch_s`` is the blocks' ``sim.run`` time, ``block_fixed_ms`` what
    each block cost beyond its own, ``ring_build_ms`` the static D-ring they
    share.  A single repetition: at minutes per run, best-of-N is not worth
    the wall clock — the nightly job tracks the trend instead.

    ``isolate=True`` runs the benchmark in a fresh child process (see
    :func:`_run_isolated`).
    """
    if isolate:
        result = _run_isolated(f"bench_paper_scale({name!r})")
        if result is not None:
            return result
    session = Session.from_name(name)
    total_start = time.perf_counter()
    trace = session.resolved_trace()
    trace_elapsed = time.perf_counter() - total_start
    session.experiment.block_ring()  # (run() would place it; here it is timed on its own)
    ring_elapsed = time.perf_counter() - total_start - trace_elapsed
    result = session.run()
    total_elapsed = time.perf_counter() - total_start
    run, census = result.flower.run, session.experiment.last_flower_system
    dispatch_elapsed = census.dispatch_s
    info = session.experiment.topology.latency_cache_info()
    return {
        "scenario": name,
        "events_per_s": run.events_fired / dispatch_elapsed,
        "queries_per_s": run.num_queries / dispatch_elapsed,
        "trace_s": trace_elapsed,
        "dispatch_s": dispatch_elapsed,
        "wall_s": total_elapsed,
        "blocks": len(census.fixed_s),
        "block_fixed_ms": [round(fixed_s * 1e3, 2) for fixed_s in census.fixed_s],
        "ring_build_ms": ring_elapsed * 1e3,
        "events_fired": run.events_fired,
        "num_queries": run.num_queries,
        "num_content_peers": census.num_content_peers,
        "hit_ratio": run.hit_ratio,
        "peak_rss_mb": _peak_rss_mb(),
        "trace_nbytes": trace.nbytes,
        "latency_cache_backend": info["backend"],
        "latency_cache_misses": info["misses"],
    }


def bench_paper_scale_monolithic(
    name: str = PAPER_SCALE_SCENARIO, isolate: bool = False
) -> Dict[str, float]:
    """The same run with every flower interleaved in one system, driven by
    hand (:func:`bench_scenario`) — how ``paper_scale`` was measured before
    runs were cut into blocks.  Recorded beside it (``monolithic_*``) so the
    trajectory stays comparable.
    """
    if isolate:
        result = _run_isolated(f"bench_paper_scale_monolithic({name!r})")
        if result is not None:
            return result
    result = bench_scenario(name, repeats=1)
    return {
        "events_per_s": result["events_per_s"],
        "wall_s": result["wall_s"],
        "peak_rss_mb": _peak_rss_mb(),
    }


def bench_paper_scale_sharded(
    name: str = PAPER_SCALE_SCENARIO, shards: int = 8, isolate: bool = False
) -> Dict[str, float]:
    """One end-to-end paper-scale run with its blocks placed over ``shards``
    worker processes (each holds one flower at a time).

    Reports two throughput numbers side by side:

    * ``events_per_s_wall`` — total events over the honest wall clock of the
      whole placed run (environment, fork, per-worker blocks, fold) on *this*
      machine.  On a single-core container the workers time-slice one CPU,
      so this is roughly the single-process rate minus overhead.
    * ``events_per_s_critical_path`` — total events over the slowest worker's
      dispatch time (:attr:`ShardRunStats.critical_path_s`).  This is the
      parallel bound: the rate an ``N``-core machine approaches when every
      worker runs on its own core.

    ``cpu_affinity`` records how many CPUs the process was actually allowed
    to use so readers can tell which of the two numbers the hardware could
    realise.  A single repetition, same as :func:`bench_paper_scale`.
    """
    if isolate:
        result = _run_isolated(f"bench_paper_scale_sharded({name!r}, shards={shards!r})")
        if result is not None:
            return result
    from repro.scenarios.parallel import default_jobs

    session = Session.from_name(name, shards=shards)
    total_start = time.perf_counter()
    run = session.run_system("flower")
    total_elapsed = time.perf_counter() - total_start
    stats = session.last_shard_stats
    critical_path_s = stats.critical_path_s
    return {
        "scenario": name,
        "shards": shards,
        "cpu_affinity": default_jobs(),
        "events_per_s_wall": run.events_fired / total_elapsed,
        "events_per_s_critical_path": run.events_fired / critical_path_s,
        "wall_s": total_elapsed,
        "pool_wall_s": stats.wall_s,
        "critical_path_s": critical_path_s,
        "setup_s_max": max(stats.setup_s_per_shard),
        "dispatch_s_total": sum(stats.dispatch_s_per_shard),
        "num_windows": stats.num_windows,
        "events_fired": run.events_fired,
        "num_queries": run.num_queries,
        "hit_ratio": run.hit_ratio,
        "peak_rss_mb": _peak_rss_mb(),
    }


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


def bench_memory_latency_cache(num_hosts: int = 500) -> Dict[str, float]:
    """Bytes held by the latency memo after touching every pair once."""
    results: Dict[str, float] = {"num_hosts": num_hosts}
    for label, cache_size in (
        ("dense", Topology.DEFAULT_LATENCY_CACHE_SIZE),
        ("lru", num_hosts),  # force the sparse backend with a small bound
    ):
        topology = Topology(
            TopologyConfig(num_hosts=num_hosts, num_localities=3),
            RandomStreams(7),
            latency_cache_size=cache_size,
        )
        for a in range(0, num_hosts, 7):
            for b in range(a + 1, num_hosts, 11):
                topology.latency_ms(a, b)
        info = topology.latency_cache_info()
        results[f"{label}_cache_nbytes"] = topology.latency_cache_nbytes()
        results[f"{label}_cache_entries"] = info["size"]
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
            "latency_cache": bench_memory_latency_cache(120),
            "metrics": bench_memory_metrics(10_000),
        }
    return {
        "event_queue": bench_memory_event_queue(),
        "latency_cache": bench_memory_latency_cache(),
        "metrics": bench_memory_metrics(),
    }


# -- the suite ----------------------------------------------------------------


def run_suite(
    scenarios: Sequence[str] = DEFAULT_SCENARIOS,
    scale: float = 1.0,
    repeats: int = 3,
    quick: bool = False,
    memory: bool = True,
    paper_scale: bool = False,
    shards: int = 0,
) -> Dict[str, object]:
    """Run the whole suite and return the ``BENCH_core.json`` document.

    ``quick`` shrinks every workload (used by the pytest smoke tests and the
    CI smoke job) — the numbers stay comparable in *shape*, not magnitude.
    ``memory`` adds the tracemalloc section; ``paper_scale`` additionally runs
    the full Table 1 scenario end to end (minutes — the nightly job's tier).
    ``shards >= 2`` (with ``paper_scale``) additionally runs the same scenario
    with its blocks placed over that many worker processes and records the
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
        name: bench_scenario(name, scale=scale, repeats=repeats) for name in scenarios
    }
    # The Squirrel baseline replays the same trace through the same trace
    # source; tracked under its own key so Chord-routing or
    # directory-path regressions trip the calibrated gate too.
    scenario_results[f"{SQUIRREL_SCENARIO}:squirrel"] = bench_scenario(
        SQUIRREL_SCENARIO, scale=scale, repeats=repeats, system="squirrel"
    )
    document: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "python": platform.python_version(),
        "repeats": repeats,
        "quick": quick,
        "micro": micro,
        "scenarios": scenario_results,
    }
    if memory:
        document["memory"] = run_memory_suite(quick=quick)
    if paper_scale:
        # Kept under its own key (not "scenarios") so the per-PR regression
        # gate never requires a minutes-long fresh run to compare against.
        # Isolated in a child process so peak_rss_mb reflects the paper-scale
        # run alone, not whatever suite section peaked earlier.
        document["paper_scale"] = bench_paper_scale(isolate=True)
        document["paper_scale"].update(
            (f"monolithic_{key}", value)
            for key, value in bench_paper_scale_monolithic(isolate=True).items()
        )
        if shards >= 2:
            document["paper_scale_sharded"] = bench_paper_scale_sharded(
                shards=shards, isolate=True
            )
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


def load_baseline(path: Optional[Path] = None) -> Dict[str, object]:
    baseline_path = path if path is not None else default_baseline_path()
    if not baseline_path.exists():
        raise FileNotFoundError(
            f"no committed perf baseline at {baseline_path}; run "
            f"`python -m repro.cli perf --update-baseline` to create it"
        )
    return json.loads(baseline_path.read_text(encoding="utf-8"))


def write_document(document: Dict[str, object], path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
