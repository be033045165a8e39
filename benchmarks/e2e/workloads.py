"""The four workloads: what each measures end to end, and its traced pass.

Every workload reports the same end-to-end metric names (the benchmark
contract wants each metric on each workload); ``README.md`` has the table of
what each name means per workload.

The reference box is a few cores of a shared host whose speed drifts and
drops in bursts (see ``calibration``), so a run is cut into *blocks* (a
scenario job, a tenth of a service phase, a boot, a child process), takes
reference spins between them, and reports reference seconds.  A block of a
second or less is divided by the slowdown the spins right around it show,
and the median block is the metric.  A paper-scale child runs for seconds,
which two spins at its ends cannot vouch for: there each segment of the
child counts at its best over the children (interference only ever makes a
segment slower), divided by the run's best spin.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.scenarios.artifacts import DIGEST_FILENAME
from repro.scenarios.golden import GOLDEN_SEED, compare_digests, load_golden, verify_golden
from repro.scenarios.library import get_scenario

from calibration import Calibration, slowdown
from serviceload import (
    JOB_SCALE,
    JOB_SCENARIO,
    PhaseResult,
    ServiceFailure,
    ServiceRun,
    run_service,
)
from simjobs import feasible_seed, paper_spec, run_job, standard_batch_specs
from sizes import Sizes

WORKLOADS = ("paper-scale", "standard-batch", "paper-scale-sharded", "service-mixed")
#: a child that outlives this is killed and counted as a failed op
CHILD_TIMEOUT_S = 170.0

Metric = Tuple[float, str]


@dataclass
class Context:
    """Where one benchmark run lives and how big it is."""

    root: Path
    seed: int
    seconds: float
    sizes: Sizes

    @property
    def src(self) -> Path:
        return self.root / "src"

    @property
    def out(self) -> Path:
        return self.root / "benchmarks" / "e2e" / "out"

    def deadline(self) -> float:
        """When the time box that starts now ends (``time.monotonic()`` scale)."""
        return time.monotonic() + self.seconds if self.sizes.time_boxed else float("inf")

    def scratch(self, name: str) -> Path:
        """A private, emptied directory under ``out/`` for this process."""
        path = self.out / f"tmp-{os.getpid()}" / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def remove_scratch(self) -> None:
        shutil.rmtree(self.out / f"tmp-{os.getpid()}", ignore_errors=True)


@dataclass
class Report:
    """One workload run: contract metrics, workload-only extras, op counts."""

    workload: str
    metrics: Dict[str, Metric] = field(default_factory=dict)
    #: metrics only this workload can produce; printed, not part of the
    #: contract's last line (every workload must emit every contract metric)
    extras: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, problem: str, ops: int = 1) -> None:
        self.failed += ops
        self.problems.append(problem)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# -- simulation workloads: fresh child per unit --------------------------------


@dataclass
class ChildRun:
    report: Dict[str, object]
    wall_s: float
    out_dir: Path


class ChildFailure(RuntimeError):
    """A workload child crashed, hung or printed no report."""


def spawn_child(
    ctx: Context, kind: str, seeds: Sequence[int], out_dir: Path, deadline: float
) -> ChildRun:
    """Run one unit in a fresh interpreter; parent-timed spawn -> exit."""
    spawned_at = time.monotonic()
    request = {
        "kind": kind,
        "seeds": list(seeds),
        "src": str(ctx.src),
        "sizes": ctx.sizes.to_json(),
        "out_dir": str(out_dir),
        "deadline": deadline,
        "spawned_at": spawned_at,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stdout_path, stderr_path = out_dir / "child.stdout", out_dir / "child.stderr"
    child = str(Path(__file__).resolve().parent / "sim_child.py")
    with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as stderr:
        process = subprocess.Popen(
            [sys.executable, child, json.dumps(request)], stdout=stdout, stderr=stderr
        )
        try:
            process.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            raise ChildFailure(f"{kind} child killed after {CHILD_TIMEOUT_S:.0f} s") from None
    wall_s = time.monotonic() - spawned_at
    if process.returncode != 0:
        tail = stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise ChildFailure(f"{kind} child exited {process.returncode}: {tail}")
    lines = stdout_path.read_text(encoding="utf-8").strip().splitlines()
    if not lines:
        raise ChildFailure(f"{kind} child printed no report")
    return ChildRun(json.loads(lines[-1]), wall_s, out_dir)


def _check_jobs(report: Report, jobs: Sequence[Dict[str, object]]) -> None:
    """Per-job sanity plus determinism: one result per (scenario, seed)."""
    witness: Dict[str, str] = {}
    for job in jobs:
        name = str(job["name"])
        if not 0.0 < float(job["hit_ratio"]) < 1.0:
            report.fail(f"{name}: hit ratio {job['hit_ratio']} outside (0, 1)")
        if abs(float(job["outcome_fraction_sum"]) - 1.0) > 1e-9:
            report.fail(f"{name}: outcome fractions sum to {job['outcome_fraction_sum']}")
        if witness.setdefault(name, str(job["result_sha256"])) != job["result_sha256"]:
            report.fail(f"{name}: result.json differs between repetitions of one seed")


def _check_paper_golden(ctx: Context, report: Report, child: ChildRun) -> None:
    """At 24 h the run *is* ``paper-default-full-scale``: hold it to its golden."""
    if ctx.sizes.paper_hours != 24.0:
        return
    golden = load_golden("paper-default-full-scale")
    digest = json.loads((child.out_dir / "digest.json").read_text(encoding="utf-8"))
    if ctx.seed == GOLDEN_SEED:
        for mismatch in compare_digests(golden, digest):
            report.fail(f"paper-scale vs golden: {mismatch}")
    else:
        expected = golden["systems"]["flower"]["metrics"]["hit_ratio"]
        actual = digest["systems"]["flower"]["metrics"]["hit_ratio"]
        if abs(actual - expected) > 0.02:
            report.fail(f"paper-scale hit ratio {actual} not within 0.02 of golden {expected}")


def run_paper(ctx: Context, kind: str) -> Report:
    """``paper-scale`` / ``paper-scale-sharded``: one job per fresh child."""
    report = Report(kind)
    scratch = ctx.scratch(kind)
    seeds = [feasible_seed(paper_spec(ctx.sizes), ctx.seed)]
    deadline = ctx.deadline()
    calibration = Calibration()
    children: List[ChildRun] = []
    # A child starts while the time box has time left and is then finished.
    while len(children) < ctx.sizes.max_children:
        if children and time.monotonic() >= deadline:
            break
        report.attempted += 1
        calibration.spin()
        try:
            child = spawn_child(ctx, kind, seeds, scratch / f"unit-{report.attempted}", deadline)
        except ChildFailure as error:
            report.fail(str(error))
            break  # the same request would fail the same way again
        children.append(child)
    if not children:
        return report
    calibration.spin()
    _check_jobs(report, [child.report["jobs"][0] for child in children])
    if kind == "paper-scale":
        _check_paper_golden(ctx, report, children[0])
    else:
        # Untimed single-process twin.  Sharded runs promise the golden-
        # rounded digest.json byte for byte; result.json may differ in the
        # last float digits because compact reservoirs merge in shard order.
        report.attempted += 1
        try:
            twin = spawn_child(
                ctx, "paper-scale", seeds, scratch / "single-process-twin", deadline
            )
        except ChildFailure as error:
            report.fail(str(error))
        else:
            sharded = (children[0].out_dir / "digest.json").read_bytes()
            if sharded != (twin.out_dir / "digest.json").read_bytes():
                report.fail("sharded digest.json differs from the single-process run")

    best = _best_segments(children)
    shards = len(children[0].report.get("shard_stats", {}).get("setup_s_per_shard", []))
    # Shard workers run side by side: the slowest one's best times count.
    shard_setup_s = max((best[f"shard{i}.setup"] for i in range(shards)), default=0.0)
    shards_s = max(
        (best[f"shard{i}.setup"] + best[f"shard{i}.dispatch"] for i in range(shards)),
        default=0.0,
    )
    # Best segments and best spin are both the box at its fastest in this run.
    box = calibration.at_best()
    setup_s = (best["startup"] + best["session"] + shard_setup_s) / box
    job_s = (best["session"] + shards_s + best["run"]) / box
    wall_s = (best["startup"] + best["exit"]) / box + job_s
    queries = children[0].report["jobs"][0]["queries"]
    report.metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "queries_per_s": (queries / (wall_s - setup_s), "1/s"),
        "peak_rss_mb": (
            statistics.median(child.report["peak_rss_mb"] for child in children),
            "MB",
        ),
        # one job per child: its median and its 90th percentile coincide
        "cold_job_p50_ms": (job_s * 1e3, "ms"),
        "cold_job_p90_ms": (job_s * 1e3, "ms"),
        "cold_jobs_per_s": (1.0 / wall_s, "1/s"),
    }
    report.extras["blocks"] = (float(len(children)), "count")
    report.extras.update(calibration.extras())
    return report


def _best_segments(children: Sequence[ChildRun]) -> Dict[str, float]:
    """Each segment of a paper-scale child at its best over ``children``.

    A child's wall is cut where the program itself reports a time: spawn ->
    imports done (``startup``), ``Session`` construction and, single-process,
    the resolved trace (``session``), the rest of the job (``run``: dispatch,
    summarising, documents; for a sharded job the part of it the shard
    workers do not cover: fork, pickling, merge), job done -> exit
    (``exit``: the bundle written).  A sharded job also has each worker's own
    ``shardN.setup`` and ``shardN.dispatch`` from ``Session.last_shard_stats``.
    """
    rows = []
    for child in children:
        job = child.report["jobs"][0]
        stats = child.report.get("shard_stats", {})
        setups = stats.get("setup_s_per_shard", [])
        dispatches = stats.get("dispatch_s_per_shard", [])
        covered = max((s + d for s, d in zip(setups, dispatches)), default=0.0)
        row = {
            "startup": child.report["startup_s"],
            "session": job["setup_s"],
            "run": job["job_s"] - job["setup_s"] - covered,
            "exit": child.wall_s - child.report["startup_s"] - job["job_s"],
        }
        for index, (setup, dispatch) in enumerate(zip(setups, dispatches)):
            row[f"shard{index}.setup"] = setup
            row[f"shard{index}.dispatch"] = dispatch
        rows.append(row)
    return {name: min(row[name] for row in rows) for name in rows[0]}


def run_batch(ctx: Context) -> Report:
    """``standard-batch``: the standard tier back to back in one child."""
    report = Report("standard-batch")
    scratch = ctx.scratch("standard-batch")
    specs = standard_batch_specs(ctx.sizes.batch_names, ctx.sizes.batch_scale)
    seeds = [feasible_seed(spec, ctx.seed) for spec in specs]
    calibration = Calibration()
    before = calibration.spin()
    try:
        child = spawn_child(ctx, "standard-batch", seeds, scratch / "unit-1", ctx.deadline())
    except ChildFailure as error:
        report.attempted += 1
        report.fail(str(error))
        return report
    jobs = child.report["jobs"]
    report.attempted += len(jobs)
    _check_jobs(report, jobs)
    _check_batch_goldens(ctx, report, sorted({str(job["name"]) for job in jobs}))

    # A job is a block: the child spins before each job and after the last,
    # and a job's times are divided by the slowdown its two spins show.  The
    # median over the passes stands for a scenario.
    spins = child.report["spins_s"]
    calibration.groups.append(spins)  # on record in the run's calibration.* lines
    setups: Dict[str, List[float]] = {}
    totals: Dict[str, List[float]] = {}
    queries: Dict[str, int] = {}
    for index, job in enumerate(jobs):
        box = slowdown(spins[index:index + 2])
        setups.setdefault(job["name"], []).append(job["setup_s"] / box)
        totals.setdefault(job["name"], []).append(job["job_s"] / box)
        queries[job["name"]] = job["queries"]
    job_s = [statistics.median(times) for times in totals.values()]
    startup_s = child.report["startup_s"] / slowdown(calibration.groups[before] + spins[:1])
    setup_s = startup_s + sum(statistics.median(times) for times in setups.values())
    wall_s = startup_s + sum(job_s)
    report.metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "queries_per_s": (sum(queries.values()) / (wall_s - setup_s), "1/s"),
        "peak_rss_mb": (child.report["peak_rss_mb"], "MB"),
        "cold_job_p50_ms": (percentile(job_s, 0.5) * 1e3, "ms"),
        "cold_job_p90_ms": (percentile(job_s, 0.9) * 1e3, "ms"),
        "cold_jobs_per_s": (len(job_s) / sum(job_s), "1/s"),
    }
    report.extras["blocks"] = (float(len(jobs)), "count")
    report.extras.update(calibration.extras())
    return report


def _check_batch_goldens(ctx: Context, report: Report, names: Sequence[str]) -> None:
    """At the golden seed, an untimed ``verify_golden`` sweep must be clean."""
    if ctx.seed != GOLDEN_SEED:
        return
    for name in names:
        report.attempted += 1
        mismatches = verify_golden(name)
        if mismatches:
            report.fail(f"verify_golden({name}): " + "; ".join(mismatches))


# -- service-mixed -------------------------------------------------------------


def phase_blocks(phase: PhaseResult, calibration: Calibration) -> List[Dict[str, float]]:
    """Latency percentiles and rate of each block of a phase, reference seconds."""
    by_block: Dict[int, List] = {}
    for sample in phase.samples:
        by_block.setdefault(sample.block, []).append(sample)
    blocks = []
    for index, chunk in sorted(by_block.items()):
        box = calibration.around(phase.spin_groups[index], phase.spin_groups[index + 1])
        latencies = [sample.latency_s / box for sample in chunk]
        span_s = max(s.ended for s in chunk) - min(s.started for s in chunk)
        blocks.append({
            "p50_s": percentile(latencies, 0.5),
            "p90_s": percentile(latencies, 0.9),
            "p95_s": percentile(latencies, 0.95),
            "p99_s": percentile(latencies, 0.99),
            "per_s": len(chunk) / (span_s / box),
        })
    return blocks


def block_median(blocks: Sequence[Dict[str, float]], key: str) -> float:
    return statistics.median(block[key] for block in blocks)


def run_service_workload(
    ctx: Context, traced: bool = False
) -> Tuple[Report, Optional[ServiceRun]]:
    """``service-mixed``; returns the report and the raw run (for the traced pass)."""
    report = Report("service-mixed")
    sizes = ctx.sizes
    cold_jobs, hot_pairs = sizes.cold_jobs, sizes.hot_pairs
    if traced:  # the traced pass only needs enough traffic for the layer medians
        cold_jobs, hot_pairs = max(4, cold_jobs // 3), max(40, hot_pairs // 3)
    report.attempted = cold_jobs + hot_pairs
    job_seeds = service_job_seeds(ctx.seed, cold_jobs)
    try:
        run = run_service(
            ctx.src, ctx.scratch("service-mixed"), job_seeds, hot_pairs, sizes.boots
        )
    except ServiceFailure as error:
        report.fail(str(error), ops=report.attempted)
        return report, None
    for problem in run.cold.failures + run.hot.failures + run.problems:
        report.fail(problem)
    expected_hot = {
        "misses": 0,
        "store_hits": min(cold_jobs, hot_pairs),
        "dedup_hits": max(0, hot_pairs - cold_jobs),
    }
    for counters, expected, phase in (
        (run.cold_counters, {"misses": cold_jobs, "store_hits": 0, "dedup_hits": 0}, "cold"),
        (run.hot_counters, expected_hot, "hot"),
    ):
        for key, value in expected.items():
            if counters.get(key) != value:
                report.fail(f"/stats after the {phase} phase: {key} = {counters.get(key)}, "
                            f"expected {value}")
    if not run.cold.samples or not run.hot.samples:
        return report, run
    _check_service_bodies(report, run.cold, job_seeds)

    # A block (a tenth of a phase, a boot) is divided by the slowdown the
    # spins around it show; the median block stands for the phase.
    calibration = run.calibration
    cold, hot = phase_blocks(run.cold, calibration), phase_blocks(run.hot, calibration)
    queries_per_job = statistics.mean(
        json.loads(sample.body)["systems"]["flower"]["metrics"]["num_queries"]
        for sample in run.cold.samples
    )
    cold_per_s, hot_per_s = block_median(cold, "per_s"), block_median(hot, "per_s")
    groups = run.boot_spin_groups
    setup_s = statistics.median(
        boot_s / calibration.around(before, after)
        for boot_s, before, after in zip(run.boots_s, groups, groups[1:])
    )
    report.metrics = {
        # boot plus both phases at their median-block rates
        "wall_s": (setup_s + cold_jobs / cold_per_s + hot_pairs / hot_per_s, "s"),
        "setup_s": (setup_s, "s"),
        "queries_per_s": (cold_per_s * queries_per_job, "1/s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "cold_job_p50_ms": (block_median(cold, "p50_s") * 1e3, "ms"),
        "cold_job_p90_ms": (block_median(cold, "p90_s") * 1e3, "ms"),
        "cold_jobs_per_s": (cold_per_s, "1/s"),
    }
    report.extras.update({
        "hot_req_p50_ms": (block_median(hot, "p50_s") * 1e3, "ms"),
        "hot_req_p95_ms": (block_median(hot, "p95_s") * 1e3, "ms"),
        "hot_req_per_s": (hot_per_s, "1/s"),
        "blocks": (float(len(cold) + len(hot)), "count"),
    })
    report.extras.update(calibration.extras())
    return report, run


def service_job_seeds(seed: int, count: int) -> List[int]:
    """The scenario seeds of workload seed ``seed``'s distinct submissions."""
    spec = get_scenario(JOB_SCENARIO).scaled(JOB_SCALE)
    return [feasible_seed(spec, 1000 * seed + index) for index in range(count)]


def _check_service_bodies(report: Report, cold: PhaseResult, job_seeds: Sequence[int]) -> None:
    """Five sampled cold bodies must equal an in-harness run of the same request."""
    spec = get_scenario(JOB_SCENARIO).scaled(JOB_SCALE)
    step = max(1, len(cold.samples) // 5)
    for sample in sorted(cold.samples, key=lambda s: s.index)[::step][:5]:
        outcome = run_job(spec, job_seeds[sample.index], scale=JOB_SCALE)
        if outcome.documents[DIGEST_FILENAME].encode("utf-8") != sample.body:
            report.fail(f"cold job {sample.index}: body differs from an in-harness Session run")


def run_untraced(ctx: Context, workload: str) -> Report:
    """The end-to-end pass of one workload (tracing off)."""
    try:
        if workload == "standard-batch":
            return run_batch(ctx)
        if workload == "service-mixed":
            return run_service_workload(ctx)[0]
        return run_paper(ctx, workload)
    finally:
        ctx.remove_scratch()
