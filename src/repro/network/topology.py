"""Synthetic latency topology (BRITE substitute).

The paper uses a BRITE-inspired model that assigns link latencies between
10 and 500 ms over 5000 underlying nodes, and splits the Internet into ``k``
non-uniformly populated localities.  We reproduce that with a planar model:

* each locality is a cluster centre placed in a 2-D latency plane;
* each host is placed around the centre of its (non-uniformly chosen)
  cluster with a configurable spread;
* the latency between two hosts is an affine function of their Euclidean
  distance, clamped to the configured ``[min_latency, max_latency]`` range
  plus a small random per-pair perturbation.

The result has exactly the property the paper's evaluation relies on:
intra-locality latencies are small (tens of milliseconds), inter-locality
latencies are large (hundreds of milliseconds), and everything lies in the
BRITE-like 10–500 ms band.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.rng import RandomStreams, derive_seed


@dataclass(frozen=True)
class TopologyConfig:
    """Parameters of the synthetic topology.

    Attributes:
        num_hosts: number of underlying hosts (the paper uses 5000).
        num_localities: number of network localities ``k`` (paper: 6).
        min_latency_ms: lower bound on pairwise latency (paper: 10 ms).
        max_latency_ms: upper bound on pairwise latency (paper: 500 ms).
        intra_locality_spread_ms: typical latency radius inside one locality.
        locality_weights: optional relative population weights, one per
            locality; localities are non-uniformly populated by default.
        jitter_ms: amplitude of the symmetric per-pair random perturbation.
        seed_stream: name of the random stream used for placement.
    """

    num_hosts: int = 5000
    num_localities: int = 6
    min_latency_ms: float = 10.0
    max_latency_ms: float = 500.0
    intra_locality_spread_ms: float = 80.0
    locality_weights: Tuple[float, ...] = ()
    jitter_ms: float = 5.0
    seed_stream: str = "topology"

    def __post_init__(self) -> None:
        if self.num_hosts <= 0:
            raise ValueError("num_hosts must be positive")
        if self.num_localities <= 0:
            raise ValueError("num_localities must be positive")
        if self.min_latency_ms <= 0 or self.max_latency_ms <= self.min_latency_ms:
            raise ValueError("latency bounds must satisfy 0 < min < max")
        if self.locality_weights and len(self.locality_weights) != self.num_localities:
            raise ValueError(
                "locality_weights must have exactly num_localities entries "
                f"({len(self.locality_weights)} != {self.num_localities})"
            )
        if self.locality_weights and (
            not all(math.isfinite(w) and w >= 0 for w in self.locality_weights)
            or sum(self.locality_weights) <= 0
        ):
            raise ValueError(
                "locality_weights must be finite, non-negative and sum to a positive value"
            )

    def effective_weights(self) -> Tuple[float, ...]:
        """Return the population weights, defaulting to a skewed distribution.

        The paper states localities are *non-uniformly* populated; in the
        absence of exact figures we default to a gently decaying weight
        profile ``1, 1/2, 1/3, ...`` normalised to sum to one.
        """
        if self.locality_weights:
            weights = self.locality_weights
        else:
            weights = tuple(1.0 / (i + 1) for i in range(self.num_localities))
        total = sum(weights)
        return tuple(w / total for w in weights)


@dataclass(slots=True)
class Host:
    """An underlying network host onto which a peer may be mapped."""

    host_id: int
    locality: int
    x: float
    y: float


class Topology:
    """Latency topology over a fixed set of hosts.

    Latencies are symmetric, deterministic for a given seed and accessed via
    :meth:`latency_ms`.  The per-pair jitter is derived from the host-id pair
    so repeated queries between the same hosts observe the same latency.
    """

    #: default bound on the pairwise latency memo (worst case a few tens of MB)
    DEFAULT_LATENCY_CACHE_SIZE = 1_000_000

    def __init__(
        self,
        config: TopologyConfig,
        streams: RandomStreams,
        latency_cache_size: int = DEFAULT_LATENCY_CACHE_SIZE,
    ) -> None:
        self._config = config
        self._streams = streams
        self._hosts: List[Host] = []
        self._centres: List[Tuple[float, float]] = []
        self._by_locality: Dict[int, Sequence[int]] = {}
        self._build()
        # Memo of symmetric pair -> latency.  The value is a pure function of
        # the pair, so entries never go stale; the memo is bounded purely to
        # cap memory.  Two backends:
        #
        # * "dense" — when the full triangular pair matrix fits within the
        #   configured bound, a flat preallocated table indexed by the
        #   triangular pair index (``rows[lo] + hi``; ``None`` = not yet
        #   computed).  8 bytes per *possible* pair plus one boxed float per
        #   computed one, no per-entry dict overhead, no eviction — and a hit
        #   is a row-offset add plus one list load, faster than a dict probe.
        # * "lru"   — for topologies whose pair matrix exceeds the bound
        #   (~12.5M pairs at 5000 hosts), a capacity-bounded dict with
        #   least-recently-used eviction; evicted pairs simply recompute to
        #   the identical value later.
        if latency_cache_size <= 0:
            raise ValueError("latency_cache_size must be positive")
        self._latency_cache_size = latency_cache_size
        self._latency_hits = 0
        self._latency_misses = 0
        num_hosts = len(self._hosts)
        num_pairs = num_hosts * (num_hosts - 1) // 2
        if num_pairs <= latency_cache_size:
            self._latency_dense: Optional[List[Optional[float]]] = [None] * num_pairs
            # Row offsets: pair (lo, hi) with lo < hi lives at rows[lo] + hi.
            self._latency_rows: List[int] = [
                lo * (2 * num_hosts - lo - 1) // 2 - lo - 1 for lo in range(num_hosts)
            ]
            self._latency_cache: Optional[Dict[int, float]] = None
        else:
            self._latency_dense = None
            self._latency_rows = []
            self._latency_cache = {}

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        cfg = self._config
        rng = self._streams.stream(cfg.seed_stream)
        # Place cluster centres on a circle wide enough that inter-locality
        # distances map to latencies near the upper bound.
        radius = (cfg.max_latency_ms - cfg.min_latency_ms) / 2.0
        for i in range(cfg.num_localities):
            angle = 2.0 * math.pi * i / cfg.num_localities
            self._centres.append((radius * math.cos(angle), radius * math.sin(angle)))
        members: List[List[int]] = [[] for _ in range(cfg.num_localities)]

        weights = cfg.effective_weights()
        for host_id in range(cfg.num_hosts):
            locality = self._pick_locality(rng.random(), weights)
            cx, cy = self._centres[locality]
            # Gaussian scatter around the centre bounded by the spread.
            dx = rng.gauss(0.0, cfg.intra_locality_spread_ms / 2.0)
            dy = rng.gauss(0.0, cfg.intra_locality_spread_ms / 2.0)
            host = Host(host_id=host_id, locality=locality, x=cx + dx, y=cy + dy)
            self._hosts.append(host)
            members[locality].append(host_id)
        # Hosts never move: freeze the membership so readers share one tuple.
        self._by_locality = {i: tuple(ids) for i, ids in enumerate(members)}

    @staticmethod
    def _pick_locality(u: float, weights: Sequence[float]) -> int:
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if u <= acc:
                return i
        return len(weights) - 1

    # -- accessors ----------------------------------------------------------

    @property
    def config(self) -> TopologyConfig:
        return self._config

    @property
    def num_hosts(self) -> int:
        return len(self._hosts)

    @property
    def num_localities(self) -> int:
        return self._config.num_localities

    def host(self, host_id: int) -> Host:
        return self._hosts[host_id]

    def hosts(self) -> Sequence[Host]:
        return tuple(self._hosts)

    def hosts_in_locality(self, locality: int) -> Sequence[int]:
        """The locality's host ids in id order (the cached tuple, not a copy)."""
        return self._by_locality.get(locality, ())

    def locality_of(self, host_id: int) -> int:
        return self._hosts[host_id].locality

    def locality_populations(self) -> Dict[int, int]:
        return {loc: len(ids) for loc, ids in self._by_locality.items()}

    def landmark_hosts(self) -> List[int]:
        """Return one representative host per locality (closest to its centre)."""
        landmarks: List[int] = []
        for loc in range(self._config.num_localities):
            members = self._by_locality.get(loc, ())
            if not members:
                continue
            cx, cy = self._centres[loc]
            best = min(
                members,
                key=lambda hid: (self._hosts[hid].x - cx) ** 2 + (self._hosts[hid].y - cy) ** 2,
            )
            landmarks.append(best)
        return landmarks

    # -- latency ------------------------------------------------------------

    def latency_ms(self, a: int, b: int) -> float:
        """Symmetric latency in milliseconds between hosts ``a`` and ``b``.

        Results are memoised per unordered pair: the value is deterministic,
        so the cache is transparent — it only skips the distance and jitter
        arithmetic on repeat queries.
        """
        if a == b:
            return 0.0
        lo, hi = (a, b) if a <= b else (b, a)
        dense = self._latency_dense
        if dense is not None:
            index = self._latency_rows[lo] + hi
            latency = dense[index]
            if latency is not None:
                self._latency_hits += 1
                return latency
            self._latency_misses += 1
            latency = self._compute_latency(lo, hi)
            dense[index] = latency
            return latency
        key = lo * len(self._hosts) + hi
        cache = self._latency_cache
        latency = cache.pop(key, None)
        if latency is not None:
            # LRU: re-insert at the back (dict preserves insertion order).
            self._latency_hits += 1
            cache[key] = latency
            return latency
        self._latency_misses += 1
        latency = self._compute_latency(lo, hi)
        if len(cache) >= self._latency_cache_size:
            # Evict the least-recently-used entry; any evicted pair is simply
            # recomputed to the identical value later.
            del cache[next(iter(cache))]
        cache[key] = latency
        return latency

    def _compute_latency(self, lo: int, hi: int) -> float:
        """The (pure) latency function the memo backends cache."""
        ha, hb = self._hosts[lo], self._hosts[hi]
        distance = math.hypot(ha.x - hb.x, ha.y - hb.y)
        latency = self._config.min_latency_ms + distance
        latency += self._pair_jitter(lo, hi)
        return max(self._config.min_latency_ms, min(self._config.max_latency_ms, latency))

    def latency_cache_info(self) -> Dict[str, object]:
        """Hit/miss/size/backend statistics of the pairwise latency memo.

        ``size`` counts the pairs currently cached, ``capacity`` the
        configured bound on them; ``backend`` reports which representation is
        active ("dense" triangular array or capacity-bounded "lru" dict).
        """
        if self._latency_dense is not None:
            # Dense entries are filled exactly once and never evicted, so the
            # miss counter equals the number of populated slots.
            size = self._latency_misses
            backend = "dense"
        else:
            size = len(self._latency_cache)
            backend = "lru"
        return {
            "hits": self._latency_hits,
            "misses": self._latency_misses,
            "size": size,
            "capacity": self._latency_cache_size,
            "backend": backend,
        }

    def drop_latency_memo(self) -> None:
        """Forget the "lru" backend's memoised pairs (they recompute to the same
        values; counters stay).  The dense table is preallocated and stays."""
        if self._latency_cache is not None:
            self._latency_cache.clear()

    def latency_cache_nbytes(self) -> int:
        """Approximate bytes held by the latency memo (diagnostic)."""
        if self._latency_dense is not None:
            # 8-byte table slots (+ row offsets) plus one boxed float per
            # computed pair.
            return 8 * (len(self._latency_dense) + len(self._latency_rows)) + (
                24 * self._latency_misses
            )
        # dict-of-float entries: ~100 bytes each including key/value boxing
        return 100 * len(self._latency_cache)

    def _pair_jitter(self, a: int, b: int) -> float:
        """Deterministic, symmetric jitter for the (a, b) pair."""
        lo, hi = (a, b) if a <= b else (b, a)
        # Simple integer hash folded into [-jitter, +jitter].
        h = (lo * 2654435761 + hi * 40503) & 0xFFFFFFFF
        unit = (h / 0xFFFFFFFF) * 2.0 - 1.0
        return unit * self._config.jitter_ms

    def average_intra_locality_latency(self, locality: int, sample: int = 200) -> float:
        """Monte-Carlo estimate of the mean latency within ``locality``.

        Uses a call-local RNG derived from the master seed and the call's own
        parameters, so the estimate depends only on ``(seed, locality,
        sample)`` — never on how many estimates were requested before (a
        shared named stream would couple results to call order).
        """
        members = self._by_locality.get(locality, ())
        if len(members) < 2:
            return 0.0
        rng = random.Random(
            derive_seed(
                self._streams.master_seed,
                f"{self._config.seed_stream}:est:{locality}:{sample}",
            )
        )
        total, count = 0.0, 0
        for _ in range(sample):
            a, b = rng.sample(members, 2)
            total += self.latency_ms(a, b)
            count += 1
        return total / count if count else 0.0
