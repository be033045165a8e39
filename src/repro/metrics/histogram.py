"""Fixed-bin histograms for latency / distance distributions.

Figures 7(b) and 8(b) of the paper report the *distribution* of lookup
latencies and transfer distances in fixed-width buckets (e.g. "87% of queries
are resolved within 150 ms", "61% take more than 1050 ms").  The histogram
here mirrors that presentation: uniform bins plus an overflow bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class HistogramBin:
    """One histogram bucket ``[low, high)`` (the overflow bin has ``high = inf``)."""

    low: float
    high: float
    count: int

    @property
    def label(self) -> str:
        if self.high == float("inf"):
            return f">={self.low:g}"
        return f"[{self.low:g}, {self.high:g})"


class Histogram:
    """Uniform-width histogram with an overflow bucket."""

    def __init__(self, bin_width: float, num_bins: int) -> None:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        if num_bins <= 0:
            raise ValueError("num_bins must be positive")
        self._bin_width = bin_width
        self._num_bins = num_bins
        self._counts = [0] * (num_bins + 1)  # last slot is the overflow bin
        self._total = 0
        self._sum = 0.0

    # -- recording -------------------------------------------------------------

    def add(self, value: float) -> None:
        self.extend((value,))

    def extend(self, values: Sequence[float]) -> None:
        """Record ``values`` in order (the sum sees one ``+=`` per value)."""
        if not values:
            return
        low = min(values)
        if low < 0:
            raise ValueError(f"histogram values must be non-negative, got {low}")
        bin_width = self._bin_width
        num_bins = self._num_bins
        counts = self._counts
        value_sum = self._sum
        for value in values:
            index = int(value // bin_width)
            counts[index if index < num_bins else num_bins] += 1
            value_sum += value
        self._sum = value_sum
        self._total += len(values)

    # -- aggregates ---------------------------------------------------------------

    @property
    def total(self) -> int:
        return self._total

    @property
    def mean(self) -> float:
        return self._sum / self._total if self._total else 0.0

    def bins(self) -> List[HistogramBin]:
        result: List[HistogramBin] = []
        for index in range(self._num_bins):
            result.append(
                HistogramBin(
                    low=index * self._bin_width,
                    high=(index + 1) * self._bin_width,
                    count=self._counts[index],
                )
            )
        result.append(
            HistogramBin(
                low=self._num_bins * self._bin_width, high=float("inf"),
                count=self._counts[self._num_bins],
            )
        )
        return result

    def fraction_below(self, threshold: float) -> float:
        """Fraction of recorded values strictly below ``threshold``.

        This is the statistic the paper quotes ("87% of queries within 150 ms",
        "59% served from a distance within 100 ms").  Values are attributed to
        bins, so the threshold is effectively rounded down to a bin boundary.
        """
        if self._total == 0:
            return 0.0
        full_bins = int(threshold // self._bin_width)
        below = sum(self._counts[: min(full_bins, self._num_bins)])
        return below / self._total

    def fraction_above(self, threshold: float) -> float:
        """Fraction of recorded values at or above ``threshold`` (bin-aligned)."""
        if self._total == 0:
            return 0.0
        return 1.0 - self.fraction_below(threshold)

    def as_fractions(self) -> List[Tuple[str, float]]:
        """Per-bin (label, fraction) pairs; this is what the figure benches print."""
        if self._total == 0:
            return [(b.label, 0.0) for b in self.bins()]
        return [(b.label, b.count / self._total) for b in self.bins()]
