"""Churn ablation (Section 5 mechanisms, listed as ongoing work in Section 8).

The paper describes how Flower-CDN deals with content-peer failures,
directory failures and locality changes but defers their empirical analysis.
This ablation runs the same workload with and without churn injection and
reports how the hit ratio, redirection failures and directory replacements
respond — exercising exactly the recovery paths of Section 5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.churn import ChurnConfig, ChurnInjector
from repro.experiments.driver import ExperimentRunner, ExperimentSetup, RunResult
from repro.metrics.report import format_table


@dataclass
class ChurnResults:
    """Side-by-side aggregates of a churn-free and a churned run."""

    baseline: RunResult
    churned: RunResult
    churn_config: ChurnConfig
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
    setup: ExperimentSetup, churn: ChurnConfig | None = None
) -> ChurnResults:
    """Run Flower-CDN without and with churn on the same trace."""
    if churn is None:
        churn = ChurnConfig(
            content_failures_per_hour=20.0,
            directory_failures_per_hour=2.0,
            locality_changes_per_hour=5.0,
        )
    baseline = ExperimentRunner(setup).run_flower()

    churn_runner = ExperimentRunner(setup)
    churned = churn_runner.run_flower(
        attachments=(lambda system: ChurnInjector(system, churn),)
    )
    (injector,) = churn_runner.last_injectors
    return ChurnResults(
        baseline=baseline,
        churned=churned,
        churn_config=churn,
        events_injected=injector.events_injected,
        directory_replacements=churn_runner.last_flower_system.directory_replacements,
    )
