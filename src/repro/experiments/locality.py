"""Figures 6, 7 and 8: Flower-CDN versus Squirrel (Sections 6.3 and 6.4).

One shared run of Flower-CDN and Squirrel over the same trace produces:

* Figure 6 — the cumulative hit ratio of both systems over time (Squirrel
  converges faster because its search space is the whole overlay; Flower-CDN
  trails by a modest margin, ≈13 % after 24 h in the paper);
* Figure 7(a) — Flower-CDN's average lookup latency over time (it drops and
  stabilises at a low value once content overlays are populated);
* Figure 7(b) — the lookup-latency distribution of both systems (the paper:
  87 % of Flower-CDN queries within 150 ms, 61 % of Squirrel's above
  1050 ms; a ≈9× average reduction);
* Figure 8(a) — Flower-CDN's average transfer distance over time (drops to
  ≈80 ms after warm-up);
* Figure 8(b) — the transfer-distance distribution of both systems (59 % of
  Flower-CDN transfers within 100 ms vs 17 % for Squirrel; ≈2× average
  reduction).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Tuple

from repro.experiments.driver import RunResult
from repro.metrics.histogram import Histogram
from repro.metrics.report import format_series, format_table

if TYPE_CHECKING:
    from repro.scenarios.spec import ScenarioSpec


@dataclass
class LocalityResults:
    """Everything Figures 6, 7 and 8 need, for both systems."""

    flower_latency_over_time: List[Tuple[float, float]]
    flower_distance_over_time: List[Tuple[float, float]]
    flower_latency_histogram: Histogram
    squirrel_latency_histogram: Histogram
    flower_distance_histogram: Histogram
    squirrel_distance_histogram: Histogram
    flower_run: RunResult
    squirrel_run: RunResult

    # -- headline numbers ---------------------------------------------------------

    @property
    def lookup_latency_speedup(self) -> float:
        """Squirrel's average lookup latency divided by Flower-CDN's (paper: ≈9)."""
        if self.flower_run.average_lookup_latency_ms == 0:
            return float("inf")
        return (
            self.squirrel_run.average_lookup_latency_ms
            / self.flower_run.average_lookup_latency_ms
        )

    @property
    def transfer_distance_reduction(self) -> float:
        """Squirrel's average transfer distance divided by Flower-CDN's (paper: ≈2)."""
        if self.flower_run.average_transfer_distance_ms == 0:
            return float("inf")
        return (
            self.squirrel_run.average_transfer_distance_ms
            / self.flower_run.average_transfer_distance_ms
        )

    def squirrel_fraction_slow_lookups(self, threshold_ms: float = 1050.0) -> float:
        return self.squirrel_latency_histogram.fraction_above(threshold_ms)

    def flower_fraction_close_transfers(self, threshold_ms: float = 100.0) -> float:
        return self.flower_distance_histogram.fraction_below(threshold_ms)

    def squirrel_fraction_close_transfers(self, threshold_ms: float = 100.0) -> float:
        return self.squirrel_distance_histogram.fraction_below(threshold_ms)

    @property
    def final_hit_ratio_gap(self) -> float:
        """Squirrel's final hit ratio minus Flower-CDN's (positive in the paper)."""
        return self.squirrel_run.hit_ratio - self.flower_run.hit_ratio

    # -- formatting -------------------------------------------------------------------

    def format_figure6(self) -> str:
        squirrel = dict(self.squirrel_run.metrics.hit_ratio_series.cumulative_means())
        rows = [
            (f"{time:.0f}", flower_value, squirrel.get(time, float("nan")))
            for time, flower_value in
            self.flower_run.metrics.hit_ratio_series.cumulative_means()
        ]
        table = format_table(
            ["t(s)", "Flower-CDN hit ratio", "Squirrel hit ratio"],
            rows,
            title="Figure 6: cumulative hit ratio over time",
        )
        summary = (
            f"final hit ratio: Flower-CDN={self.flower_run.hit_ratio:.3f}, "
            f"Squirrel={self.squirrel_run.hit_ratio:.3f}, "
            f"gap={self.final_hit_ratio_gap:+.3f}"
        )
        return f"{table}\n{summary}"

    def format_figure7(self) -> str:
        distribution_rows = [
            (label, flower_frac, squirrel_frac)
            for (label, flower_frac), (_, squirrel_frac) in zip(
                self.flower_latency_histogram.as_fractions(),
                self.squirrel_latency_histogram.as_fractions(),
            )
        ]
        parts = [
            format_series(
                "Figure 7a: Flower-CDN average lookup latency (ms) over time",
                self.flower_latency_over_time,
                y_label="latency (ms)",
            ),
            "",
            format_table(
                ["latency bin (ms)", "Flower-CDN fraction", "Squirrel fraction"],
                distribution_rows,
                title="Figure 7b: lookup latency distribution",
            ),
            "",
            (
                f"average lookup latency: Flower-CDN="
                f"{self.flower_run.average_lookup_latency_ms:.1f} ms, "
                f"Squirrel={self.squirrel_run.average_lookup_latency_ms:.1f} ms, "
                f"speedup={self.lookup_latency_speedup:.1f}x"
            ),
        ]
        return "\n".join(parts)

    def format_figure8(self) -> str:
        distribution_rows = [
            (label, flower_frac, squirrel_frac)
            for (label, flower_frac), (_, squirrel_frac) in zip(
                self.flower_distance_histogram.as_fractions(),
                self.squirrel_distance_histogram.as_fractions(),
            )
        ]
        parts = [
            format_series(
                "Figure 8a: Flower-CDN average transfer distance (ms) over time",
                self.flower_distance_over_time,
                y_label="distance (ms)",
            ),
            "",
            format_table(
                ["distance bin (ms)", "Flower-CDN fraction", "Squirrel fraction"],
                distribution_rows,
                title="Figure 8b: transfer distance distribution",
            ),
            "",
            (
                f"average transfer distance: Flower-CDN="
                f"{self.flower_run.average_transfer_distance_ms:.1f} ms, "
                f"Squirrel={self.squirrel_run.average_transfer_distance_ms:.1f} ms, "
                f"reduction={self.transfer_distance_reduction:.1f}x"
            ),
        ]
        return "\n".join(parts)


def run_locality_experiment(spec: "ScenarioSpec") -> LocalityResults:
    """Run ``spec`` as a Flower-CDN / Squirrel pair — one session, one trace —
    and extract the Figure 6/7/8 data."""
    from repro.session import Session

    result = Session(replace(spec, systems=("flower", "squirrel"))).run()
    flower, squirrel = result.flower, result.squirrel
    return LocalityResults(
        flower_latency_over_time=flower.series["lookup_latency_ms"],
        flower_distance_over_time=flower.series["transfer_distance_ms"],
        flower_latency_histogram=flower.run.metrics.lookup_latency_histogram,
        squirrel_latency_histogram=squirrel.run.metrics.lookup_latency_histogram,
        flower_distance_histogram=flower.run.metrics.transfer_distance_histogram,
        squirrel_distance_histogram=squirrel.run.metrics.transfer_distance_histogram,
        flower_run=flower.run,
        squirrel_run=squirrel.run,
    )
