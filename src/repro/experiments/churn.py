"""Churn ablation (Section 5 mechanisms, listed as ongoing work in Section 8).

The paper describes how Flower-CDN deals with content-peer failures,
directory failures and locality changes but defers their empirical analysis.
This ablation runs the same workload with and without churn injection and
reports how the hit ratio, redirection failures and directory replacements
respond — exercising exactly the recovery paths of Section 5.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from repro.experiments.driver import RunResult
from repro.metrics.report import format_table

if TYPE_CHECKING:
    from repro.scenarios.spec import ChurnProfile, ScenarioSpec


@dataclass
class ChurnResults:
    """Side-by-side aggregates of a churn-free and a churned run."""

    baseline: RunResult
    churned: RunResult
    churn: "ChurnProfile"
    events_injected: int
    directory_replacements: int

    @property
    def hit_ratio_drop(self) -> float:
        """How much hit ratio is lost to churn (paper's mechanisms keep it small)."""
        return self.baseline.hit_ratio - self.churned.hit_ratio

    def format(self) -> str:
        table = format_table(
            ["run", "hit ratio", "avg lookup (ms)", "redirection failures"],
            [
                (
                    "no churn",
                    self.baseline.hit_ratio,
                    self.baseline.average_lookup_latency_ms,
                    self.baseline.redirection_failures,
                ),
                (
                    "with churn",
                    self.churned.hit_ratio,
                    self.churned.average_lookup_latency_ms,
                    self.churned.redirection_failures,
                ),
            ],
            title="Churn ablation",
        )
        summary = (
            f"churn events injected={self.events_injected}, "
            f"directory replacements={self.directory_replacements}, "
            f"hit ratio drop={self.hit_ratio_drop:+.3f}"
        )
        return f"{table}\n{summary}"


def run_churn_experiment(
    spec: "ScenarioSpec", churn: Optional["ChurnProfile"] = None
) -> ChurnResults:
    """Run ``spec`` without churn and with the ``churn`` profile, on the same trace.

    The churned run is the spec with that profile for its churn model; being
    one whole-catalogue block, it keeps its system and injectors to count
    from.
    """
    from repro.scenarios.spec import ChurnProfile
    from repro.session import Session

    if churn is None:
        churn = ChurnProfile(
            content_failures_per_hour=20.0,
            directory_failures_per_hour=2.0,
            locality_changes_per_hour=5.0,
        )
    baseline = Session(replace(spec, churn=ChurnProfile())).run_system("flower")
    session = Session(replace(spec, churn=churn))
    churned = session.run_system("flower")
    injector = session.last_injectors[0]  # (the churn model attaches first)
    return ChurnResults(
        baseline=baseline,
        churned=churned,
        churn=churn,
        events_injected=injector.events_injected,
        directory_replacements=session.experiment.last_flower_system.directory_replacements,
    )
