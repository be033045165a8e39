"""Query workload generation.

Reproduces the paper's workload model (Section 6.1):

* queries arrive at an aggregate rate of ``query_rate`` per second;
* each query targets one of the *active* websites (6 of the 100 catalogued
  websites receive queries);
* the requested object is drawn from the website's objects with a Zipf law;
* the query originates from a random locality; whether the originator is a
  brand-new client or an existing content peer of the website is decided by
  the system driving the simulation (it depends on overlay membership), so
  the generator exposes only a *preference*, true with probability
  ``NEW_CLIENT_BIAS``.

:meth:`QueryGenerator.generate_trace` is the one generator: it draws a whole
run as array columns, span by span of a scenario program (a stationary run is
the program of one span).  The per-query reference it is tested against lives
in ``tests/reference/workload.py``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import inf, log
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.rng import RandomStreams, randbelow_many
from repro.workload.catalog import Catalog, Website
from repro.workload.phases import PhaseSpan, segment_counts
from repro.workload.zipf import ZipfSampler

#: probability that a query prefers a brand-new client as its originator
NEW_CLIENT_BIAS = 0.5


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of the synthetic query workload."""

    num_websites: int = 100
    active_websites: int = 6
    objects_per_website: int = 500
    num_localities: int = 6
    query_rate_per_s: float = 6.0
    zipf_alpha: float = 0.8
    arrival_process: str = "poisson"  # "poisson" or "uniform"
    locality_weights: Sequence[float] = ()

    def __post_init__(self) -> None:
        if self.num_websites <= 0:
            raise ValueError("num_websites must be positive")
        if not 0 < self.active_websites <= self.num_websites:
            raise ValueError("active_websites must be in (0, num_websites]")
        if self.objects_per_website <= 0:
            raise ValueError("objects_per_website must be positive")
        if self.num_localities <= 0:
            raise ValueError("num_localities must be positive")
        if self.query_rate_per_s <= 0:
            raise ValueError("query_rate_per_s must be positive")
        if self.zipf_alpha < 0:
            raise ValueError("zipf_alpha must be non-negative")
        if self.arrival_process not in ("poisson", "uniform"):
            raise ValueError("arrival_process must be 'poisson' or 'uniform'")
        if self.locality_weights and len(self.locality_weights) != self.num_localities:
            raise ValueError("locality_weights must have num_localities entries")


class QueryGenerator:
    """Generates the workload driving an experiment as one array-column trace."""

    __slots__ = (
        "_config",
        "_catalog",
        "_active",
        "_samplers",
        "_next_id",
        "_arrival_rng",
        "_locality_rng",
        "_website_rng",
        "_zipf_rng",
        "_originator_rng",
    )

    def __init__(
        self,
        config: WorkloadConfig,
        streams: RandomStreams,
        catalog: Optional[Catalog] = None,
    ) -> None:
        self._config = config
        self._catalog = catalog or Catalog.synthetic(
            config.num_websites, config.objects_per_website
        )
        if len(self._catalog) < config.active_websites:
            raise ValueError(
                "catalogue has fewer websites than the requested number of active websites"
            )
        self._active: List[Website] = list(self._catalog.websites[: config.active_websites])
        #: Zipf samplers by (population, alpha): a draw is a pure function of
        #: those two values (the "cdf" guide table reproduces the historical
        #: bisection draw bit for bit, which the golden digests are defined over)
        self._samplers: Dict[Tuple[int, float], ZipfSampler] = {}
        self._next_id = 0
        # Bind the five named streams once; the stream objects are the ones
        # the registry hands out, so draw sequences are unchanged.
        self._arrival_rng = streams.stream("workload:arrival")
        self._locality_rng = streams.stream("workload:locality")
        self._website_rng = streams.stream("workload:website")
        self._zipf_rng = streams.stream("workload:zipf")
        self._originator_rng = streams.stream("workload:originator")

    # -- accessors ----------------------------------------------------------

    @property
    def config(self) -> WorkloadConfig:
        return self._config

    @property
    def catalog(self) -> Catalog:
        return self._catalog

    @property
    def active_websites(self) -> Sequence[Website]:
        return tuple(self._active)

    # -- the trace ----------------------------------------------------------

    def generate_trace(self, duration_s: float, start_time: float = 0.0, phases=None):
        """Every query arriving in ``[start_time, start_time + duration_s)``, as columns.

        Returns a :class:`~repro.workload.trace.QueryTraceArrays`.
        ``phases`` optionally supplies compiled
        :class:`~repro.workload.phases.PhaseSpan` segments (a scenario
        *program*); none means the one span ``PhaseSpan(0.0, duration_s)``.
        Arrival rates are modulated per span, and each query's website and
        object draws use the span containing its arrival time.

        Each per-query draw is batched per stream (and per span where the
        span matters) instead of interleaved per query, which is legal
        because the named streams are independent ``random.Random``
        instances: batching reorders draws *across* streams, never within
        one.  The draw that first crosses the horizon is consumed on every
        stream, as a per-query generator would consume it.  Spans that share
        a modulation draw exactly what one span over their union draws, so a
        homogeneous program is byte-identical to a stationary run.
        """
        from repro.workload.trace import QueryTraceArrays

        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        spans = tuple(phases) if phases else (PhaseSpan(0.0, duration_s),)
        cfg = self._config

        # 1. Arrival stream.
        times = self._program_arrivals(spans, duration_s, start_time)
        counts = list(segment_counts(times, [start_time + span.end_s for span in spans]))
        counts[-1] += 1  # the horizon-crossing draw belongs to the last span
        n = len(times)
        count = n + 1

        # 2. Website stream: per-span windows mapped into one shared tuple of
        #    every website the program references, kept in catalogue order.
        windows = [self._phase_window(span.hotspot_rotation) for span in spans]
        catalog_position = {site.name: i for i, site in enumerate(self._catalog.websites)}
        used = sorted(
            {catalog_position[site.name] for window in windows for site in window}
        )
        trace_websites = tuple(self._catalog.websites[i] for i in used)
        trace_position = {site.name: j for j, site in enumerate(trace_websites)}
        website_index = array("H")
        for window, seg_count in zip(windows, counts):
            draws = randbelow_many(self._website_rng, len(self._active), seg_count)
            positions = [trace_position[site.name] for site in window]
            if positions != list(range(len(positions))):  # a rotated window
                draws = [positions[draw] for draw in draws]
            website_index.extend(draws)

        # 3. Zipf stream: per-span exponent; equal populations batch through
        #    one sampler, unequal catalogues fall back to per-query sampling.
        zipf_rng = self._zipf_rng
        object_rank = array("I")
        cursor = 0
        for span, window, seg_count in zip(spans, windows, counts):
            alpha = cfg.zipf_alpha if span.zipf_alpha is None else span.zipf_alpha
            populations = {site.num_objects for site in window}
            if len(populations) == 1:
                sampler = self._sampler_for(populations.pop(), alpha)
                object_rank.extend(sampler.sample_many(zipf_rng, seg_count))
            else:
                object_rank.extend(
                    self._sampler_for(site.num_objects, alpha).sample(zipf_rng)
                    for site in (
                        trace_websites[w]
                        for w in website_index[cursor : cursor + seg_count]
                    )
                )
            cursor += seg_count

        # 4./5. Locality and originator: span-independent, one batch each.
        if cfg.locality_weights:
            locality = array("H", [self._pick_locality() for _ in range(count)])
        else:
            locality = array(
                "H", randbelow_many(self._locality_rng, cfg.num_localities, count)
            )
        originator = self._originator_rng.random
        prefers_new = array("b", [originator() < NEW_CLIENT_BIAS for _ in range(count)])

        first_query_id = self._next_id
        self._next_id += count
        # The horizon-crossing query is dropped from every per-query column.
        return QueryTraceArrays(
            websites=trace_websites,
            first_query_id=first_query_id,
            times=times,
            website_index=website_index[:n],
            object_rank=object_rank[:n],
            locality=locality[:n],
            prefers_new=prefers_new[:n],
        )

    def _program_arrivals(self, spans, duration_s: float, start_time: float) -> array:
        """Arrival times under per-span rate modulation (one shared stream).

        Inside a span, inter-arrivals are exponential (or uniform) at
        ``rate * span.rate_multiplier``.  A draw that crosses into a span
        with a *different* multiplier has its residual rescaled by the
        multiplier ratio — the exact inhomogeneous-Poisson construction, by
        memorylessness; into a span with the same multiplier it passes
        untouched.  The span's rate and step are locals refreshed only when a
        draw crosses a boundary, and each draw is compared with one limit, the
        nearer of the span's boundary (infinite for the last span) and the
        horizon: a draw inside a span costs what a stationary loop's costs.
        """
        base_rate = self._config.query_rate_per_s
        poisson = self._config.arrival_process == "poisson"
        uniform = self._arrival_rng.random
        end = start_time + duration_s
        boundaries = [start_time + span.end_s for span in spans[:-1]]
        boundaries.append(inf)
        index = 0
        boundary = boundaries[0]
        limit = min(boundary, end)
        multiplier = spans[0].rate_multiplier
        rate = base_rate * multiplier
        step = 1.0 / rate
        times = array("d")
        append = times.append
        clock = start_time
        while True:
            # expovariate(rate), inlined: -log(1 - random()) / rate.
            clock += -log(1.0 - uniform()) / rate if poisson else step
            if clock >= limit:
                while clock >= boundary:
                    index += 1
                    following = spans[index].rate_multiplier
                    if following != multiplier:
                        clock = boundary + (clock - boundary) * (multiplier / following)
                        multiplier = following
                        rate = base_rate * multiplier
                        step = 1.0 / rate
                    boundary = boundaries[index]
                if clock >= end:
                    return times
                limit = min(boundary, end)
            append(clock)

    def _phase_window(self, rotation: int) -> List[Website]:
        """The active-website window rotated ``rotation`` catalogue positions.

        Rotation is applied modulo the catalogue size, so a program written
        for the full catalogue stays valid when the spec is scaled down.
        """
        sites = self._catalog.websites
        if rotation % len(sites) == 0:
            return list(self._active)
        count = len(self._active)
        return [sites[(rotation + i) % len(sites)] for i in range(count)]

    def _sampler_for(self, population: int, alpha: float) -> ZipfSampler:
        """The (cached) sampler for one ``(population, alpha)``."""
        key = (population, alpha)
        sampler = self._samplers.get(key)
        if sampler is None:
            sampler = self._samplers[key] = ZipfSampler(population, alpha)
        return sampler

    def _pick_locality(self) -> int:
        """One draw of a query's locality under ``locality_weights``."""
        weights = self._config.locality_weights
        u = self._locality_rng.random()
        total = sum(weights)
        acc = 0.0
        for index, weight in enumerate(weights):
            acc += weight / total
            if u <= acc:
                return index
        return self._config.num_localities - 1
