"""Isolated probes: layers a callback wrapper cannot separate.

Each probe drives one layer's public function in a tight loop with inputs
sized from the workload's own spec (summary width, ring size, host count,
pending-event depth, bundle size), for five samples of ``sample_s`` seconds,
and reports the median cost per call.  All inputs derive from ``seed``.
"""

from __future__ import annotations

import random
import shutil
import statistics
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Optional, Tuple

from repro.datastructures.aged_view import AgedEntry, AgedView
from repro.datastructures.bloom import BloomFilter
from repro.network.topology import Topology
from repro.sim.rng import RandomStreams
from repro.metrics.collectors import MetricsCollector, QueryOutcome, QueryRecord
from repro.overlay.chord import ChordRing
from repro.overlay.idspace import IdSpace
from repro.overlay.pastry import PastryRing
from repro.overlay.router import KBRRouter
from repro.scenarios.spec import ScenarioSpec
from repro.service.jobs import JobManager, canonical_scenario_payload
from repro.service.store import RunStore, request_digest
from repro.session import Session
from repro.sim.engine import Simulator
from repro.workload.zipf import ZipfSampler

SAMPLES = 5
#: period of the no-op handles the event-queue probes keep pending
PROBE_PERIOD_S = 1800.0
#: overlay probes build their own ring; cap it so building stays sub-second
MAX_RING_NODES = 600


def per_call(
    body: Callable[[int], int],
    sample_s: float,
    prepare: Optional[Callable[[], None]] = None,
) -> float:
    """Median seconds per call of ``body``.

    ``body(n)`` makes about ``n`` calls and returns how many it really made;
    ``prepare`` (untimed) runs before every timed ``body`` call.
    """

    def timed(batch: int) -> Tuple[float, int]:
        if prepare is not None:
            prepare()
        started = perf_counter()
        calls = body(batch)
        return perf_counter() - started, max(1, calls)

    batch = 1
    while True:  # grow the batch until one timing is long enough to trust
        elapsed, calls = timed(batch)
        if elapsed >= sample_s / 4 or calls < batch or batch >= 1 << 22:
            break
        batch *= 4
    batch = max(1, int(calls * sample_s / max(elapsed, 1e-9)))
    samples = []
    for _ in range(SAMPLES):
        elapsed, calls = timed(batch)
        samples.append(elapsed / calls)
    return statistics.median(samples)


def run_probes(
    spec: ScenarioSpec,
    seed: int,
    documents: Dict[str, str],
    scratch: Path,
    sample_s: float,
) -> Dict[str, Tuple[float, str]]:
    """Every isolated probe for a workload whose first job is ``spec``."""
    rng = random.Random(seed)
    metrics: Dict[str, Tuple[float, str]] = {}
    sim, system = Session.from_spec(spec, seed=seed).build_flower()

    # -- sim: both queue backends at the workload's pending depth ------------
    depth = max(1, sim.pending_events)
    for backend in ("heap", "calendar"):
        probe_sim = Simulator(seed=seed, queue_backend=backend)
        for index in range(depth):
            probe_sim.call_every(PROBE_PERIOD_S, noop, start=PROBE_PERIOD_S * (index + 1) / depth)

        def dispatch(n: int, probe_sim: Simulator = probe_sim) -> int:
            before = probe_sim.events_fired
            probe_sim.run(until=probe_sim.now + PROBE_PERIOD_S * n / depth)
            return probe_sim.events_fired - before

        metrics[f"sim.{backend}_ns_per_event"] = (per_call(dispatch, sample_s) * 1e9, "ns")

    # -- core: D-ring routing (Algorithm 2) at the workload's ring size ------
    pairs = [(p.website, p.locality) for p in system.dring.placements()]
    entries = system.dring.ring.live_ids()

    def route_dring(n: int) -> int:
        route = system.dring.route_query
        for _ in range(n):
            website, locality = rng.choice(pairs)
            route(website, locality, start_node_id=rng.choice(entries))
        return n

    metrics["core.dring_route_us"] = (per_call(route_dring, sample_s) * 1e6, "us")

    # -- datastructures: Bloom summaries at the spec's width, aged views -----
    bits = system.config.summary_bits
    objects = [f"object-{i}" for i in range(spec.objects_per_website)]
    summary = BloomFilter(num_bits=bits, expected_items=spec.objects_per_website)
    summary.update(rng.sample(objects, max(1, len(objects) // 4)))

    def bloom_probe(n: int) -> int:
        hits = 0
        for i in range(n):
            hits += objects[i % len(objects)] in summary
        return n

    def bloom_add(n: int) -> int:
        scratch_filter = BloomFilter(num_bits=bits, expected_items=spec.objects_per_website)
        add = scratch_filter.add
        for i in range(n):
            add(objects[i % len(objects)])
        return n

    metrics["datastructures.bloom_probe_ns"] = (per_call(bloom_probe, sample_s) * 1e9, "ns")
    metrics["datastructures.bloom_add_ns"] = (per_call(bloom_add, sample_s) * 1e9, "ns")

    view_entries = [
        AgedEntry(contact=f"peer-{i}", age=rng.randrange(8), payload=summary)
        for i in range(spec.view_size)
    ]
    message = [
        AgedEntry(contact=f"peer-{rng.randrange(2 * spec.view_size)}", age=0, payload=summary)
        for _ in range(spec.gossip_length)
    ]

    def view_merge(n: int) -> int:
        for _ in range(n):
            view = AgedView(capacity=spec.view_size)
            view.merge(view_entries)
            view.merge(message, self_contact="peer-0")
        return n

    metrics["datastructures.aged_view_merge_us"] = (per_call(view_merge, sample_s) * 1e6, "us")

    # -- network: the latency memo the spec's host count selects -------------
    setup = spec.to_setup(seed=seed)
    hosts = setup.topology.num_hosts
    state = {"topology": system.latency.topology, "cursor": 0}
    warm = [(rng.randrange(hosts), rng.randrange(hosts)) for _ in range(512)]

    def fresh_memo() -> None:
        state["topology"] = Topology(setup.topology, RandomStreams(seed))
        state["cursor"] = 0

    def latency_hit(n: int) -> int:
        latency = state["topology"].latency_ms
        for i in range(n):
            a, b = warm[i & 511]
            latency(a, b)
        return n

    def latency_miss(n: int) -> int:
        # Host pairs (lo, lo + stride) in order: no unordered pair repeats
        # within one freshly built memo.
        latency = state["topology"].latency_ms
        n = min(n, hosts * (hosts - 1) // 2)
        cursor = state["cursor"]
        for _ in range(n):
            lo, stride = cursor % hosts, cursor // hosts + 1
            latency(lo, (lo + stride) % hosts)
            cursor += 1
        state["cursor"] = cursor
        return n

    for a, b in warm:
        state["topology"].latency_ms(a, b)
    metrics["network.latency_hit_ns"] = (per_call(latency_hit, sample_s) * 1e9, "ns")
    metrics["network.latency_miss_ns"] = (
        per_call(latency_miss, sample_s, prepare=fresh_memo) * 1e9,
        "ns",
    )

    # -- overlay: plain key-based routing on both substrates -----------------
    idspace = IdSpace(32)
    node_ids = sorted(rng.sample(range(idspace.size), min(hosts, MAX_RING_NODES)))
    for name, ring_class in (("chord", ChordRing), ("pastry", PastryRing)):
        router = KBRRouter(ring_class.build(idspace, node_ids))

        def route_overlay(n: int, router: KBRRouter = router) -> int:
            for _ in range(n):
                router.route(rng.choice(node_ids), rng.randrange(idspace.size))
            return n

        metrics[f"overlay.{name}_route_us"] = (per_call(route_overlay, sample_s) * 1e6, "us")

    # -- workload: one Zipf draw over the spec's catalogue -------------------
    sampler = ZipfSampler(spec.objects_per_website, alpha=spec.zipf_alpha)

    def zipf_draw(n: int) -> int:
        sample = sampler.sample
        for _ in range(n):
            sample(rng)
        return n

    metrics["workload.zipf_draw_ns"] = (per_call(zipf_draw, sample_s) * 1e9, "ns")

    # -- metrics: one record on the collector mode the spec selects ----------
    def record_query(n: int) -> int:
        collector = MetricsCollector(
            window_s=spec.effective_metrics_window_s,
            retain_records=not spec.compact_metrics,
        )
        record = collector.record
        for i in range(n):
            record(QueryRecord(i, float(i), "ws", 0, QueryOutcome.LOCAL_OVERLAY_HIT, 100.0, 50.0))
        return n

    metrics["metrics.record_ns"] = (per_call(record_query, sample_s) * 1e9, "ns")

    # -- service: digest, dedup lookup and the run store at this bundle size -
    metrics.update(_service_probes(spec, seed, documents, scratch, sample_s))
    return metrics


def noop() -> None:
    return None


def _service_probes(
    spec: ScenarioSpec,
    seed: int,
    documents: Dict[str, str],
    scratch: Path,
    sample_s: float,
) -> Dict[str, Tuple[float, str]]:
    metrics: Dict[str, Tuple[float, str]] = {}

    def digest(n: int) -> int:
        for _ in range(n):
            request_digest(canonical_scenario_payload(spec, seed=seed))
        return n

    metrics["service.digest_us"] = (per_call(digest, sample_s) * 1e6, "us")

    root = scratch / "probe-store"
    shutil.rmtree(root, ignore_errors=True)
    store = RunStore(root)
    payload = canonical_scenario_payload(spec, seed=seed)
    counter = [0]

    def put(n: int) -> int:
        # Every put publishes a new digest, so the store (and its rewritten
        # index) grows while the probe runs, as it does under a cold phase.
        for _ in range(n):
            counter[0] += 1
            store.put(request_digest({**payload, "probe": counter[0]}), documents)
        return n

    metrics["service.store_put_ms"] = (per_call(put, sample_s) * 1e3, "ms")
    known = store.digests()

    def read(n: int) -> int:
        for i in range(n):
            store.read_document(known[i % len(known)], "digest.json")
        return n

    metrics["service.store_read_ms"] = (per_call(read, sample_s) * 1e3, "ms")

    def reopen(n: int) -> int:
        for _ in range(n):
            RunStore(root)
        return n

    metrics["service.store_open_ms"] = (per_call(reopen, sample_s) * 1e3, "ms")

    manager = JobManager(store, workers=1, executor=lambda _payload, _execution: documents)
    try:
        known_payload = {**payload, "probe": 1}
        manager.submit(known_payload, label=spec.name)

        def submit_hit(n: int) -> int:
            for _ in range(n):
                manager.submit(known_payload, label=spec.name)
            return n

        metrics["service.submit_hit_us"] = (per_call(submit_hit, sample_s) * 1e6, "us")
    finally:
        manager.shutdown(drain=True, timeout_s=10.0)
        shutil.rmtree(root, ignore_errors=True)
    return metrics
