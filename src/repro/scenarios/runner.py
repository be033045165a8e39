"""Scenario execution: spec in, structured deterministic result out.

:class:`~repro.session.Session` composes the simulator, topology, workload
and the requested CDN systems from a :class:`~repro.scenarios.spec.ScenarioSpec`
(via the shared :class:`~repro.experiments.driver.ExperimentRunner`, so every
system in a scenario processes the exact same resolved query trace);
:func:`summarise_system` folds each raw run into a :class:`ScenarioResult`:

* per-system headline **metrics** (hit ratio, lookup latency, transfer
  distance, background bandwidth, outcome mix);
* per-system **phase** aggregates (warm-up vs steady state, split at
  ``spec.warmup_fraction``);
* per-system **series** (the windowed curves behind Figures 5-8).

Results are deterministic functions of ``(spec, seed)`` — byte-for-byte
reproducible across processes — which is what the golden-metrics regression
suite in :mod:`repro.scenarios.golden` relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.driver import RunResult
from repro.metrics.timeseries import TimeSeries
from repro.scenarios.spec import ScenarioSpec

#: digest metrics that are integer counts (never rounded in digests)
INTEGER_METRICS = (
    "num_queries",
    "redirection_failures",
    "resilience_messages_blocked",
    "resilience_retries_exhausted",
    "resilience_server_fallbacks",
    "resilience_reconciliations",
)


def _phase_mean(series: TimeSeries, split_s: float, phase: str) -> float:
    """Mean of the per-window means falling into one phase of the run."""
    if phase == "warmup":
        values = [mean for start, mean in series.window_means() if start < split_s]
    else:
        values = list(series.values_after(split_s))
    return sum(values) / len(values) if values else 0.0


@dataclass
class SystemResult:
    """Everything recorded about one system's run inside a scenario."""

    system: str
    metrics: Dict[str, float]
    phases: Dict[str, Dict[str, float]]
    series: Dict[str, List[Tuple[float, float]]]
    run: Optional[RunResult] = field(default=None, repr=False, compare=False)

    def to_dict(self, precision: Optional[int] = None) -> Dict[str, object]:
        def number(value: float) -> float:
            return value if precision is None else round(value, precision)

        return {
            "metrics": {
                key: (value if key in INTEGER_METRICS else number(value))
                for key, value in self.metrics.items()
            },
            "phases": {
                phase: {key: number(value) for key, value in values.items()}
                for phase, values in self.phases.items()
            },
            "series": {
                name: [[number(t), number(v)] for t, v in points]
                for name, points in self.series.items()
            },
        }


@dataclass
class ScenarioResult:
    """The structured outcome of one scenario run."""

    spec: ScenarioSpec
    seed: int
    systems: Dict[str, SystemResult]

    def __getitem__(self, system: str) -> SystemResult:
        return self.systems[system]

    @property
    def flower(self) -> SystemResult:
        return self.systems["flower"]

    @property
    def squirrel(self) -> SystemResult:
        return self.systems["squirrel"]

    def to_dict(self) -> Dict[str, object]:
        """Full-precision structured result (used for determinism checks)."""
        return {
            "scenario": self.spec.name,
            "seed": self.seed,
            "spec": self.spec.to_dict(),
            "systems": {name: result.to_dict() for name, result in self.systems.items()},
        }

    def metrics_digest(self, precision: int = 6) -> Dict[str, object]:
        """Rounded metrics + phases (no series) — the golden-file payload.

        Rounding makes the digest robust to representation noise when it is
        serialised, diffed and compared across platforms.
        """
        digest: Dict[str, object] = {
            "scenario": self.spec.name,
            "seed": self.seed,
            "systems": {},
        }
        for name, result in self.systems.items():
            entry = result.to_dict(precision=precision)
            del entry["series"]
            digest["systems"][name] = entry
        return digest


def summarise_system(spec: ScenarioSpec, system: str, run: RunResult) -> SystemResult:
    """Fold one raw :class:`RunResult` into the structured scenario shape."""
    metrics = run.metrics
    split_s = spec.warmup_s
    outcome_fractions = metrics.outcome_fractions()

    headline: Dict[str, float] = {
        "num_queries": run.num_queries,
        "hit_ratio": run.hit_ratio,
        "average_lookup_latency_ms": run.average_lookup_latency_ms,
        "average_transfer_distance_ms": run.average_transfer_distance_ms,
        "background_bps_per_peer": run.background_bps_per_peer,
        "redirection_failures": run.redirection_failures,
        "average_overlay_hops": metrics.average_overlay_hops,
    }
    for outcome, fraction in sorted(
        outcome_fractions.items(), key=lambda item: item[0].value
    ):
        headline[f"fraction_{outcome.value}"] = fraction
    if run.resilience:
        # Present only when a metric-emitting reachability model ran, so
        # fault-free digests stay byte-identical to the pre-resilience ones.
        headline.update(run.resilience)

    phases = {
        phase: {
            "hit_ratio": _phase_mean(metrics.hit_ratio_series, split_s, phase),
            "lookup_latency_ms": _phase_mean(
                metrics.lookup_latency_series, split_s, phase
            ),
            "transfer_distance_ms": _phase_mean(
                metrics.transfer_distance_series, split_s, phase
            ),
        }
        for phase in ("warmup", "steady")
    }

    series: Dict[str, List[Tuple[float, float]]] = {
        "hit_ratio_cumulative": metrics.hit_ratio_series.cumulative_means(),
        "lookup_latency_ms": metrics.lookup_latency_series.window_means(),
        "transfer_distance_ms": metrics.transfer_distance_series.window_means(),
    }
    if run.bandwidth is not None:
        series["background_bps_per_peer"] = run.bandwidth.bps_series()

    return SystemResult(
        system=system, metrics=headline, phases=phases, series=series, run=run
    )


def run_scenario(
    spec: ScenarioSpec,
    seed: Optional[int] = None,
    scale: Optional[float] = None,
    shards: Optional[int] = None,
    shard_jobs: Optional[int] = None,
) -> ScenarioResult:
    """Convenience wrapper: optionally rescale, then run through a Session."""
    from repro.session import Session

    if scale is not None and scale != 1.0:
        spec = spec.scaled(scale)
    return Session(spec, seed=seed, shards=shards, shard_jobs=shard_jobs).run()
