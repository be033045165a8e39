"""Query workload generation.

Reproduces the paper's workload model (Section 6.1):

* queries arrive at an aggregate rate of ``query_rate`` per second;
* each query targets one of the *active* websites (6 of the 100 catalogued
  websites receive queries);
* the requested object is drawn from the website's objects with a Zipf law;
* the query originates from a random locality; whether the originator is a
  brand-new client or an existing content peer of the website is decided by
  the system driving the simulation (it depends on overlay membership), so
  the generator exposes only a *preference* drawn from ``new_client_bias``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from math import log
from typing import Dict, Iterator, List, Optional, Sequence

from repro.sim.rng import RandomStreams, randbelow_many
from repro.workload.catalog import Catalog, ObjectId, Website
from repro.workload.phases import segment_counts, spans_are_trivial
from repro.workload.zipf import ZipfSampler


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of the synthetic query workload."""

    num_websites: int = 100
    active_websites: int = 6
    objects_per_website: int = 500
    num_localities: int = 6
    query_rate_per_s: float = 6.0
    zipf_alpha: float = 0.8
    new_client_bias: float = 0.5
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
        if not 0.0 <= self.new_client_bias <= 1.0:
            raise ValueError("new_client_bias must be in [0, 1]")
        if self.arrival_process not in ("poisson", "uniform"):
            raise ValueError("arrival_process must be 'poisson' or 'uniform'")
        if self.locality_weights and len(self.locality_weights) != self.num_localities:
            raise ValueError("locality_weights must have num_localities entries")


@dataclass(slots=True, unsafe_hash=True)
class Query:
    """One client query for an object of a website.

    Constructed once per generated query.  Deliberately *not* frozen: a
    frozen dataclass's ``__init__`` routes every field through
    ``object.__setattr__``, which is several times slower — measurable at
    paper-scale trace volumes.  ``unsafe_hash`` keeps the value-object
    hashing the frozen variant provided; treat instances as immutable.
    """

    query_id: int
    time: float
    website: str
    object_id: ObjectId
    locality: int
    prefers_new_client: bool

    def __str__(self) -> str:
        return (
            f"Query#{self.query_id}(t={self.time:.3f}s, ws={self.website}, "
            f"obj={self.object_id.rsplit('/', 1)[-1]}, loc={self.locality})"
        )


class QueryGenerator:
    """Generates the stream of :class:`Query` objects driving an experiment."""

    __slots__ = (
        "_config",
        "_streams",
        "_catalog",
        "_active",
        "_samplers",
        "_phase_samplers",
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
        self._streams = streams
        self._catalog = catalog or Catalog.synthetic(
            config.num_websites, config.objects_per_website
        )
        if len(self._catalog) < config.active_websites:
            raise ValueError(
                "catalogue has fewer websites than the requested number of active websites"
            )
        self._active: List[Website] = list(self._catalog.websites[: config.active_websites])
        # The "cdf" strategy reproduces the historical bisection draw
        # sequence bit for bit (in O(1) expected time): the committed golden
        # digests are defined over that exact u -> rank mapping.
        self._samplers: Dict[str, ZipfSampler] = {
            site.name: ZipfSampler(site.num_objects, config.zipf_alpha)
            for site in self._active
        }
        # Samplers for phased programs, keyed by (population, alpha); seeded
        # with the base samplers so a program at the base skew reuses the
        # exact instances (and therefore the exact u -> rank mapping) the
        # single-phase path uses.
        self._phase_samplers: Dict[tuple, ZipfSampler] = {
            (site.num_objects, config.zipf_alpha): self._samplers[site.name]
            for site in self._active
        }
        self._next_id = 0
        # Bind the named streams once: next_query() draws from five streams
        # per query, and the per-call registry lookups dominate generation
        # time for long traces.  The stream objects are the same ones the
        # registry hands out, so draw sequences are unchanged.
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

    @property
    def queries_generated(self) -> int:
        return self._next_id

    # -- sampling -----------------------------------------------------------

    def _next_interarrival(self) -> float:
        if self._config.arrival_process == "poisson":
            return self._arrival_rng.expovariate(self._config.query_rate_per_s)
        return 1.0 / self._config.query_rate_per_s

    def _pick_locality(self) -> int:
        weights = self._config.locality_weights
        if not weights:
            return self._locality_rng.randint(0, self._config.num_localities - 1)
        u = self._locality_rng.random()
        total = sum(weights)
        acc = 0.0
        for index, weight in enumerate(weights):
            acc += weight / total
            if u <= acc:
                return index
        return self._config.num_localities - 1

    def _pick_website(self) -> Website:
        return self._website_rng.choice(self._active)

    def _pick_object(self, website: Website) -> ObjectId:
        rank = self._samplers[website.name].sample(self._zipf_rng)
        return website.object_id(rank)

    def next_query(self, current_time: float) -> Query:
        """Generate the next query; its ``time`` is ``current_time`` + inter-arrival."""
        website = self._pick_website()
        query = Query(
            query_id=self._next_id,
            time=current_time + self._next_interarrival(),
            website=website.name,
            object_id=self._pick_object(website),
            locality=self._pick_locality(),
            prefers_new_client=(
                self._originator_rng.random() < self._config.new_client_bias
            ),
        )
        self._next_id += 1
        return query

    def generate(self, duration_s: float, start_time: float = 0.0) -> Iterator[Query]:
        """Yield every query arriving in ``[start_time, start_time + duration_s)``."""
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        clock = start_time
        end = start_time + duration_s
        while True:
            query = self.next_query(clock)
            if query.time >= end:
                return
            clock = query.time
            yield query

    def generate_trace(self, duration_s: float, start_time: float = 0.0, phases=None):
        """Vectorised :meth:`generate`: the whole workload as array columns.

        Produces a :class:`~repro.workload.trace.QueryTraceArrays` whose
        materialised queries — and the post-call state of every random
        stream — are **bit-identical** to iterating :meth:`generate`.  The
        five per-query draws are batched per stream instead of interleaved
        per query, which is legal because the named streams are independent
        ``random.Random`` instances: batching reorders draws *across* streams
        but never within one.  Like :meth:`generate`, the draw that first
        crosses the horizon is consumed (one extra draw per stream).

        ``phases`` optionally supplies compiled
        :class:`~repro.workload.phases.PhaseSpan` segments (a scenario
        *program*): arrival rates are modulated per span and each query's
        website/object draws use the span containing its arrival time.  A
        trivial program (empty, or default spans only) takes this exact
        single-phase path, so its draws stay byte-identical.
        """
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if phases and not spans_are_trivial(phases):
            return self._generate_program_trace(tuple(phases), duration_s, start_time)
        cfg = self._config
        end = start_time + duration_s

        # 1. Arrival stream: cumulative inter-arrival sums up to the horizon.
        times = array("d")
        append = times.append
        clock = start_time
        if cfg.arrival_process == "poisson":
            # expovariate(rate), inlined: -log(1 - random()) / rate.
            uniform = self._arrival_rng.random
            rate = cfg.query_rate_per_s
            while True:
                clock += -log(1.0 - uniform()) / rate
                if clock >= end:
                    break
                append(clock)
        else:
            step = 1.0 / cfg.query_rate_per_s
            while True:
                clock += step
                if clock >= end:
                    break
                append(clock)
        count = len(times) + 1  # the crossing query consumed draws too

        # 2. Website stream: the _randbelow draw random.choice consumes.
        website_index = array(
            "H", randbelow_many(self._website_rng, len(self._active), count)
        )

        # 3. Zipf stream: one rank per query.  All synthetic websites share
        #    one population size, so a single sampler reproduces the per-site
        #    draw mapping; unequal catalogues fall back to per-query samplers.
        populations = {site.num_objects for site in self._active}
        if len(populations) == 1:
            sampler = self._samplers[self._active[0].name]
            object_rank = array("I", sampler.sample_many(self._zipf_rng, count))
        else:
            zipf_rng = self._zipf_rng
            object_rank = array(
                "I",
                (
                    self._samplers[self._active[w].name].sample(zipf_rng)
                    for w in website_index
                ),
            )

        return self._finish_trace(tuple(self._active), times, website_index, object_rank)

    def _finish_trace(self, websites, times, website_index, object_rank):
        """Streams 4 and 5 (locality, originator), then the column container.

        Every stream was drawn once more than there are queries — the
        horizon-crossing query consumed its draws too — so the last entry of
        each per-query column is dropped.
        """
        from repro.workload.trace import QueryTraceArrays

        cfg = self._config
        n = len(times)
        count = n + 1
        if cfg.locality_weights:
            locality = array("H", [self._pick_locality() for _ in range(count)])
        else:
            locality = array(
                "H", randbelow_many(self._locality_rng, cfg.num_localities, count)
            )
        originator = self._originator_rng.random
        bias = cfg.new_client_bias
        prefers_new = array("b", [originator() < bias for _ in range(count)])
        first_query_id = self._next_id
        self._next_id += count
        return QueryTraceArrays(
            websites=websites,
            first_query_id=first_query_id,
            times=times,
            website_index=website_index[:n],
            object_rank=object_rank[:n],
            locality=locality[:n],
            prefers_new=prefers_new[:n],
        )

    # -- phased programs ----------------------------------------------------

    def _sampler_for(self, population: int, alpha: float) -> ZipfSampler:
        """The (cached) sampler for one ``(population, alpha)``."""
        key = (population, alpha)
        sampler = self._phase_samplers.get(key)
        if sampler is None:
            sampler = ZipfSampler(population, alpha)
            self._phase_samplers[key] = sampler
        return sampler

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

    def _program_arrivals(self, spans, duration_s: float, start_time: float):
        """Arrival times under per-span rate modulation (one shared stream).

        Inside a span, inter-arrivals are exponential (or uniform) at
        ``rate * span.rate_multiplier``.  A draw that crosses into a span
        with a *different* multiplier has its residual rescaled by the rate
        ratio — the exact inhomogeneous-Poisson construction, by
        memorylessness.  When consecutive spans share a multiplier the draw
        is passed through untouched, so homogeneous programs reproduce the
        single-phase arrival sequence bit for bit.
        """
        cfg = self._config
        rate = cfg.query_rate_per_s
        poisson = cfg.arrival_process == "poisson"
        uniform = self._arrival_rng.random
        end = start_time + duration_s
        times = array("d")
        index = 0
        current = spans[0]
        boundary = start_time + current.end_s
        clock = start_time
        while True:
            if poisson:
                # expovariate(rate * multiplier), inlined.
                t = clock + -log(1.0 - uniform()) / (rate * current.rate_multiplier)
            else:
                t = clock + 1.0 / (rate * current.rate_multiplier)
            while t >= boundary and index + 1 < len(spans):
                nxt = spans[index + 1]
                if nxt.rate_multiplier != current.rate_multiplier:
                    t = boundary + (t - boundary) * (
                        current.rate_multiplier / nxt.rate_multiplier
                    )
                index += 1
                current = nxt
                boundary = start_time + current.end_s
            if t >= end:
                break
            times.append(t)
            clock = t
        return times

    def _generate_program_trace(self, spans, duration_s: float, start_time: float):
        """The phased-program counterpart of :meth:`generate_trace`.

        Arrivals are generated in one pass across the spans; the remaining
        four per-query draws are batched per span (each span's queries form a
        contiguous index range of the sorted arrival sequence), using the
        span's Zipf exponent and hotspot rotation.  With homogeneous spans
        the per-span batches concatenate to exactly the full-trace batches of
        the single-phase path, so the draw sequences — and the post-call
        stream states — are byte-identical to an equivalent un-phased run.
        """
        cfg = self._config

        # 1. Arrival stream.
        times = self._program_arrivals(spans, duration_s, start_time)
        counts = list(
            segment_counts(times, [start_time + span.end_s for span in spans])
        )
        counts[-1] += 1  # the horizon-crossing draw belongs to the last span

        # 2. Website stream: per-span windows mapped into one shared tuple of
        #    every website the program references, kept in catalogue order.
        windows = [self._phase_window(span.hotspot_rotation) for span in spans]
        catalog_position = {site.name: i for i, site in enumerate(self._catalog.websites)}
        used = sorted(
            {catalog_position[site.name] for window in windows for site in window}
        )
        trace_websites = tuple(self._catalog.websites[i] for i in used)
        trace_position = {self._catalog.websites[i].name: j for j, i in enumerate(used)}

        website_index = array("H")
        for window, seg_count in zip(windows, counts):
            window_positions = [trace_position[site.name] for site in window]
            website_index.extend(
                [
                    window_positions[draw]
                    for draw in randbelow_many(self._website_rng, len(self._active), seg_count)
                ]
            )

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
                segment_sites = [
                    trace_websites[website_index[cursor + offset]]
                    for offset in range(seg_count)
                ]
                object_rank.extend(
                    self._sampler_for(site.num_objects, alpha).sample(zipf_rng)
                    for site in segment_sites
                )
            cursor += seg_count

        # 4./5. Phase-independent: one full batch each, as in the
        #    single-phase path.
        return self._finish_trace(trace_websites, times, website_index, object_rank)

    def generate_batch(self, count: int, start_time: float = 0.0) -> List[Query]:
        """Generate exactly ``count`` queries (used by benchmarks with fixed work)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        queries: List[Query] = []
        clock = start_time
        for _ in range(count):
            query = self.next_query(clock)
            clock = query.time
            queries.append(query)
        return queries
