"""Zipf popularity sampling.

Object requests within a single website follow a Zipf-like distribution
(Breslau et al., "Web Caching and Zipf-like Distributions").  The seed
implementation drew ranks by O(log n) CDF bisection; this module provides two
O(1) strategies instead, selected by the ``method`` argument:

* ``"alias"`` (default) — a Walker/Vose alias table: one uniform variate is
  split into a table column and a coin flip.  Fastest and rank-count
  independent, but its u -> rank mapping differs from the historical
  bisection sampler.
* ``"cdf"`` — inverse-CDF sampling accelerated by a guide table (indexed
  search, Chen & Asau).  Produces *bit-identical* draws to the original
  ``bisect_left`` implementation in O(1) expected time; the workload
  generator pins this method because the committed golden digests are
  defined over its exact draw sequence.

Both strategies consume exactly one uniform variate per draw, like the
bisection sampler they replace, so samplers sharing a random stream with
other components do not shift those components' draw sequences.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

#: guide-table buckets per rank; 2x gives short forward scans even in the
#: flat tail of the distribution at negligible memory cost
_GUIDE_FACTOR = 2


class ZipfSampler:
    """Samples ranks in ``[0, population_size)`` with Zipf(alpha) probabilities.

    Rank 0 is the most popular item.  ``alpha = 0.8`` is the commonly cited
    web-workload exponent and the default used by the experiments.

    Args:
        population_size: number of ranks.
        alpha: Zipf exponent (``0`` degenerates to uniform).
        method: ``"alias"`` (Walker alias table, default) or ``"cdf"``
            (guide-table inverse CDF, exactly reproducing the historical
            bisection draw sequence).
    """

    def __init__(self, population_size: int, alpha: float = 0.8, method: str = "alias") -> None:
        if population_size <= 0:
            raise ValueError(f"population_size must be positive, got {population_size}")
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        if method not in ("alias", "cdf"):
            raise ValueError(f"method must be 'alias' or 'cdf', got {method!r}")
        self._population_size = population_size
        self._alpha = alpha
        self._method = method
        weights = [1.0 / ((rank + 1) ** alpha) for rank in range(population_size)]
        total = sum(weights)
        self._probabilities = [weight / total for weight in weights]
        if method == "alias":
            self._prob, self._alias = self._build_alias(self._probabilities)
            self._cdf: List[float] = []
            self._guide: List[int] = []
            self.sample = self._sample_alias  # bind once: no per-draw dispatch
        else:
            self._prob, self._alias = [], []
            self._cdf = self._build_cdf(weights, total)
            self._guide = self._build_guide(self._cdf)
            self.sample = self._sample_cdf

    # -- table construction --------------------------------------------------

    @staticmethod
    def _build_alias(probabilities: Sequence[float]) -> Tuple[List[float], List[int]]:
        """Vose's O(n) alias-table construction.

        ``prob[i]`` is the probability that column ``i`` keeps its own rank;
        otherwise the draw falls through to ``alias[i]``.  Deterministic for a
        given probability vector.
        """
        n = len(probabilities)
        prob = [0.0] * n
        alias = [0] * n
        scaled = [p * n for p in probabilities]
        small = [i for i, s in enumerate(scaled) if s < 1.0]
        large = [i for i, s in enumerate(scaled) if s >= 1.0]
        while small and large:
            s = small.pop()
            l = large.pop()
            prob[s] = scaled[s]
            alias[s] = l
            scaled[l] = (scaled[l] + scaled[s]) - 1.0
            if scaled[l] < 1.0:
                small.append(l)
            else:
                large.append(l)
        # Residuals are 1.0 up to floating-point error.
        for remaining in large:
            prob[remaining] = 1.0
        for remaining in small:
            prob[remaining] = 1.0
        return prob, alias

    @staticmethod
    def _build_cdf(weights: Sequence[float], total: float) -> List[float]:
        # Accumulation order matches the historical implementation exactly so
        # the resulting CDF — and therefore every draw — is bit-identical.
        cdf: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            cdf.append(acc)
        cdf[-1] = 1.0  # guard against floating-point shortfall
        return cdf

    @staticmethod
    def _build_guide(cdf: Sequence[float]) -> List[int]:
        """Guide table: ``guide[k]`` = first rank whose CDF reaches ``k/K``."""
        buckets = max(1, len(cdf) * _GUIDE_FACTOR)
        guide: List[int] = []
        rank = 0
        n = len(cdf)
        for k in range(buckets + 1):
            threshold = k / buckets
            while rank < n and cdf[rank] < threshold:
                rank += 1
            guide.append(rank)
        return guide

    # -- accessors -----------------------------------------------------------

    @property
    def population_size(self) -> int:
        return self._population_size

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def method(self) -> str:
        return self._method

    def probability(self, rank: int) -> float:
        """Probability mass of ``rank`` (0-based)."""
        if not 0 <= rank < self._population_size:
            raise IndexError(f"rank {rank} outside [0, {self._population_size})")
        return self._probabilities[rank]

    # -- sampling ------------------------------------------------------------
    # ``sample`` is bound per instance in __init__ to one of the two
    # strategies; both consume exactly one uniform variate per draw.

    def _sample_alias(self, rng: random.Random) -> int:
        """O(1) draw from the Walker alias table."""
        n = self._population_size
        x = rng.random() * n
        column = int(x)
        if column >= n:  # guard against u*n rounding up at the boundary
            column = n - 1
        return column if (x - column) < self._prob[column] else self._alias[column]

    def _sample_cdf(self, rng: random.Random) -> int:
        """O(1) expected inverse-CDF draw, bit-identical to ``bisect_left``."""
        u = rng.random()
        cdf = self._cdf
        guide = self._guide
        buckets = len(guide) - 1
        rank = guide[int(u * buckets)]  # u < 1, so the index is at most `buckets`
        # Guard against u*buckets rounding up across a bucket boundary.
        while rank > 0 and cdf[rank - 1] >= u:
            rank -= 1
        while cdf[rank] < u:
            rank += 1
        return rank

    def sample_many(self, rng: random.Random, count: int) -> Sequence[int]:
        """Draw ``count`` ranks; equivalent to ``count`` calls to :meth:`sample`.

        Both strategies are batched over locally bound lookups, which is
        measurably faster than repeated :meth:`sample` calls for large
        workloads.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        rand = rng.random
        ranks: List[int] = []
        append = ranks.append
        if self._method == "cdf":
            # _sample_cdf, inlined.
            cdf = self._cdf
            guide = self._guide
            buckets = len(guide) - 1
            for _ in range(count):
                u = rand()
                rank = guide[int(u * buckets)]
                while rank > 0 and cdf[rank - 1] >= u:
                    rank -= 1
                while cdf[rank] < u:
                    rank += 1
                append(rank)
            return ranks
        n = self._population_size
        prob = self._prob
        alias = self._alias
        for _ in range(count):
            x = rand() * n
            column = int(x)
            if column >= n:
                column = n - 1
            append(column if (x - column) < prob[column] else alias[column])
        return ranks

    def expected_unique_fraction(self, num_draws: int) -> float:
        """Expected fraction of the population touched after ``num_draws`` draws.

        Used by tests and by the experiment harness to sanity-check how fast a
        content overlay can possibly converge to a full replica set.
        """
        if num_draws < 0:
            raise ValueError("num_draws must be non-negative")
        touched = 0.0
        for probability in self._probabilities:
            touched += 1.0 - (1.0 - probability) ** num_draws
        return touched / self._population_size
