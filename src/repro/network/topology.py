"""Synthetic latency topology (BRITE substitute).

The paper uses a BRITE-inspired model that assigns link latencies between
10 and 500 ms over 5000 underlying nodes, and splits the Internet into ``k``
non-uniformly populated localities.  We reproduce that with a planar model:

* each locality is a cluster centre placed in a 2-D latency plane;
* each host is placed around the centre of its (non-uniformly chosen)
  cluster with a fixed spread;
* the latency between two hosts is an affine function of their Euclidean
  distance plus a small per-pair perturbation, clamped to the
  ``[MIN_LATENCY_MS, MAX_LATENCY_MS]`` range.

The result has exactly the property the paper's evaluation relies on:
intra-locality latencies are small (tens of milliseconds), inter-locality
latencies are large (hundreds of milliseconds), and everything lies in the
BRITE-like 10–500 ms band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.sim.rng import RandomStreams

#: Bound on the pairs the latency memo holds (~100 bytes each, so ~100 MB at
#: most).  A miss that finds the memo full clears it; the values are pure, so
#: that only costs recomputation.  The 24 h Squirrel run at 5000 hosts, the
#: one whole run with no per-block drop, peaks at ~560 k pairs.
LATENCY_MEMO_BOUND = 1_000_000

#: bounds on pairwise latency (the paper's BRITE band: 10 to 500 ms); the
#: upper bound is also the latency to an origin server
MIN_LATENCY_MS = 10.0
MAX_LATENCY_MS = 500.0
#: amplitude of the symmetric per-pair perturbation
JITTER_MS = 5.0
#: typical latency radius of a host around its locality's centre
INTRA_LOCALITY_SPREAD_MS = 80.0


@dataclass(frozen=True)
class TopologyConfig:
    """Parameters of the synthetic topology.

    Attributes:
        num_hosts: number of underlying hosts (the paper uses 5000).
        num_localities: number of network localities ``k`` (paper: 6).
        locality_weights: optional relative population weights, one per
            locality; localities are non-uniformly populated by default.
    """

    num_hosts: int = 5000
    num_localities: int = 6
    locality_weights: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.num_hosts <= 0:
            raise ValueError("num_hosts must be positive")
        if self.num_localities <= 0:
            raise ValueError("num_localities must be positive")
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
    Each host's locality is the cluster it is placed in.
    """

    def __init__(self, config: TopologyConfig, streams: RandomStreams) -> None:
        self._config = config
        self._hosts: List[Host] = []
        self._by_locality: Dict[int, Sequence[int]] = {}
        self._build(streams)
        # Memo of unordered pair -> latency, keyed ``lo * num_hosts + hi``
        # (bounded by LATENCY_MEMO_BOUND).
        self._latency_memo: Dict[int, float] = {}
        self._latency_hits = 0
        self._latency_misses = 0

    # -- construction ------------------------------------------------------

    def _build(self, streams: RandomStreams) -> None:
        cfg = self._config
        rng = streams.stream("topology")
        # Place cluster centres on a circle wide enough that inter-locality
        # distances map to latencies near the upper bound.
        radius = (MAX_LATENCY_MS - MIN_LATENCY_MS) / 2.0
        centres: List[Tuple[float, float]] = []
        for i in range(cfg.num_localities):
            angle = 2.0 * math.pi * i / cfg.num_localities
            centres.append((radius * math.cos(angle), radius * math.sin(angle)))
        members: List[List[int]] = [[] for _ in range(cfg.num_localities)]

        weights = cfg.effective_weights()
        for host_id in range(cfg.num_hosts):
            locality = self._pick_locality(rng.random(), weights)
            cx, cy = centres[locality]
            # Gaussian scatter around the centre bounded by the spread.
            dx = rng.gauss(0.0, INTRA_LOCALITY_SPREAD_MS / 2.0)
            dy = rng.gauss(0.0, INTRA_LOCALITY_SPREAD_MS / 2.0)
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

    def hosts(self) -> Sequence[Host]:
        return tuple(self._hosts)

    def hosts_in_locality(self, locality: int) -> Sequence[int]:
        """The locality's host ids in id order (the cached tuple, not a copy)."""
        return self._by_locality.get(locality, ())

    def locality_of(self, host_id: int) -> int:
        return self._hosts[host_id].locality

    # -- latency ------------------------------------------------------------

    def latency_ms(self, a: int, b: int) -> float:
        """Symmetric latency in milliseconds between hosts ``a`` and ``b``.

        Results are memoised per unordered pair: the value is deterministic,
        so the memo is transparent — it only skips the distance and jitter
        arithmetic on repeat queries.
        """
        if a == b:
            return 0.0
        lo, hi = (a, b) if a <= b else (b, a)
        key = lo * len(self._hosts) + hi
        memo = self._latency_memo
        latency = memo.get(key)
        if latency is not None:
            self._latency_hits += 1
            return latency
        self._latency_misses += 1
        latency = self._compute_latency(lo, hi)
        if len(memo) >= LATENCY_MEMO_BOUND:
            memo.clear()
        memo[key] = latency
        return latency

    def _compute_latency(self, lo: int, hi: int) -> float:
        """The (pure) latency function the memo caches, for ``lo < hi``."""
        ha, hb = self._hosts[lo], self._hosts[hi]
        latency = MIN_LATENCY_MS + math.hypot(ha.x - hb.x, ha.y - hb.y)
        # Deterministic, symmetric jitter: an integer hash of the pair folded
        # into [-jitter, +jitter].
        h = (lo * 2654435761 + hi * 40503) & 0xFFFFFFFF
        latency += ((h / 0xFFFFFFFF) * 2.0 - 1.0) * JITTER_MS
        return max(MIN_LATENCY_MS, min(MAX_LATENCY_MS, latency))

    def latency_cache_info(self) -> Dict[str, int]:
        """Hit/miss counters of the pair memo and the pairs it holds now."""
        return {
            "hits": self._latency_hits,
            "misses": self._latency_misses,
            "size": len(self._latency_memo),
        }

    def drop_latency_memo(self) -> None:
        """Forget every memoised pair (they recompute to the same values);
        the hit and miss counters stay."""
        self._latency_memo.clear()
