"""Windowed time series.

Figures 5, 6, 7(a) and 8(a) plot metrics against simulation time.  The
:class:`TimeSeries` here buckets samples into fixed windows and reports the
per-window mean (and optionally the cumulative mean), which is exactly how an
"average X over time" curve is produced from raw per-query samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class WindowStat:
    """Aggregate of the samples falling into one time window."""

    window_start: float
    count: int
    mean: float
    total: float


class TimeSeries:
    """Accumulates (time, value) samples into fixed windows."""

    def __init__(self, window_s: float) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self._window_s = window_s
        # window index -> [sum, count]; one dict lookup per sample instead of
        # two (this add() runs several times per simulated query).
        self._buckets: Dict[int, List[float]] = {}
        self._total_sum = 0.0
        self._total_count = 0

    @property
    def window_s(self) -> float:
        return self._window_s

    @property
    def total_count(self) -> int:
        return self._total_count

    @property
    def overall_mean(self) -> float:
        return self._total_sum / self._total_count if self._total_count else 0.0

    def merge_from(self, other: "TimeSeries") -> None:
        """Fold another series' windows into this one (bucket-wise sums).

        Both series must share the window width.  Used by the sharded
        engine to combine per-shard compact series; sums and counts add
        exactly because counts are integers and the values folded into a
        given bucket are identical to a single-process fold of the union.
        """
        if other._window_s != self._window_s:
            raise ValueError(
                f"window mismatch: {other._window_s} != {self._window_s}"
            )
        buckets = self._buckets
        for index, (value_sum, count) in other._buckets.items():
            bucket = buckets.get(index)
            if bucket is None:
                buckets[index] = [value_sum, count]
            else:
                bucket[0] += value_sum
                bucket[1] += count
        self._total_sum += other._total_sum
        self._total_count += other._total_count

    def add(self, time_s: float, value: float) -> None:
        if time_s < 0:
            raise ValueError("sample time must be non-negative")
        index = int(time_s // self._window_s)
        bucket = self._buckets.get(index)
        if bucket is None:
            self._buckets[index] = [value, 1]
        else:
            bucket[0] += value
            bucket[1] += 1
        self._total_sum += value
        self._total_count += 1

    def add_run(self, index: int, values: Sequence[float]) -> None:
        """Add consecutive samples that all fall into window ``index``.

        One :meth:`add` per value — both sums see the same float additions in
        the same order — without the per-sample window lookup.
        """
        if index < 0:
            raise ValueError("sample time must be non-negative")
        if not values:
            return
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = [0.0, 0]
        window_sum = bucket[0]
        total_sum = self._total_sum
        for value in values:
            window_sum += value
            total_sum += value
        bucket[0] = window_sum
        bucket[1] += len(values)
        self._total_sum = total_sum
        self._total_count += len(values)

    def windows(self) -> List[WindowStat]:
        """Per-window aggregates, ordered by time; empty windows are omitted."""
        stats: List[WindowStat] = []
        for index in sorted(self._buckets):
            total, count = self._buckets[index]
            count = int(count)
            stats.append(
                WindowStat(
                    window_start=index * self._window_s,
                    count=count,
                    mean=total / count,
                    total=total,
                )
            )
        return stats

    def window_means(self) -> List[Tuple[float, float]]:
        """(window start, window mean) pairs — the raw series for a figure."""
        return [(w.window_start, w.mean) for w in self.windows()]

    def cumulative_means(self) -> List[Tuple[float, float]]:
        """(window start, cumulative mean up to the end of that window) pairs.

        Hit-ratio curves (Figures 5 and 6) are cumulative: the ratio of all
        queries answered by the P2P system since the beginning of the run.
        """
        points: List[Tuple[float, float]] = []
        running_sum = 0.0
        running_count = 0
        for window in self.windows():
            running_sum += window.total
            running_count += window.count
            points.append((window.window_start, running_sum / running_count))
        return points

    def values_after(self, time_s: float) -> Sequence[float]:
        """Window means for windows starting at or after ``time_s`` (post-warm-up)."""
        return tuple(mean for start, mean in self.window_means() if start >= time_s)
