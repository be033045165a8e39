"""Zipf popularity sampling.

Object requests within a single website follow a Zipf-like distribution
(Breslau et al., "Web Caching and Zipf-like Distributions").  The seed
implementation drew ranks by O(log n) CDF bisection; this module samples the
inverse CDF through a guide table instead (indexed search, Chen & Asau):
*bit-identical* draws to the original ``bisect_left`` implementation in O(1)
expected time — the committed golden digests are defined over that exact
draw sequence.  Each draw consumes exactly one uniform variate, like the
bisection sampler it replaces, so samplers sharing a random stream with
other components do not shift those components' draw sequences.
"""

from __future__ import annotations

import random
from typing import List, Sequence

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
    """

    def __init__(self, population_size: int, alpha: float = 0.8) -> None:
        if population_size <= 0:
            raise ValueError(f"population_size must be positive, got {population_size}")
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self._population_size = population_size
        self._alpha = alpha
        weights = [1.0 / ((rank + 1) ** alpha) for rank in range(population_size)]
        total = sum(weights)
        self._probabilities = [weight / total for weight in weights]
        self._cdf = self._build_cdf(weights, total)
        self._guide = self._build_guide(self._cdf)

    # -- table construction --------------------------------------------------

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

    def probability(self, rank: int) -> float:
        """Probability mass of ``rank`` (0-based)."""
        if not 0 <= rank < self._population_size:
            raise IndexError(f"rank {rank} outside [0, {self._population_size})")
        return self._probabilities[rank]

    # -- sampling ------------------------------------------------------------

    def sample(self, rng: random.Random) -> int:
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

        Batched over locally bound lookups, which is measurably faster than
        repeated :meth:`sample` calls for large workloads.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        rand = rng.random
        ranks: List[int] = []
        append = ranks.append
        # sample(), inlined.
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
