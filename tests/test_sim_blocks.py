"""One run loop, one flower at a time: equivalence, liveness, the harness contract.

Every Flower-CDN run is a *plan* handed to one loop (``repro.sim.sharded``):
a separable spec's blocks — one website's flower after another over one
shared environment — or one whole-catalogue block for everything else.  Four
things are pinned here:

* **equivalence** — however the catalogue is grouped into blocks and
  wherever the blocks are placed, ``result.json`` and ``digest.json`` are the
  bytes of the whole-catalogue block (``run_blocks(runner, None, ...)``)
  with the same attachments, retained and compact metrics alike;
* **one loop** — every registered spec and a runner without a plan reach the
  same block runner; what a whole-catalogue block keeps alive;
* **liveness** — a block is gone (reference counting, no collector pass)
  before the next one is built, which is the memory the decomposition buys;
* **the harness contract** — what ``benchmarks/e2e`` reaches of the program
  keeps meaning what it meant: driver-level constructor swaps see every
  block, shard stats exist per worker only, the census answers for the whole
  run, the environment is built once.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.experiments.driver as driver
import repro.sim.sharded as sharded
from repro.core.config import HOUR
from repro.core.content_peer import ContentPeer
from repro.core.sharding import inseparable_reason, plan_blocks
from repro.core.system import InfeasibleScenarioError
from repro.metrics.collectors import QueryOutcome
from repro.scenarios.artifacts import DIGEST_FILENAME, RESULT_FILENAME, run_documents
from repro.scenarios.library import get_scenario, iter_scenarios, scenario_names
from repro.scenarios.runner import ScenarioResult, summarise_system
from repro.session import Session
from repro.workload.assignment import ResolvedQuery

SEEDS = (42, 7, 1234)


def table1_spec(hours: float):
    """Table 1's population and constants, cut off early (compact metrics,
    calendar queue) — what ``benchmarks/e2e`` runs as ``paper-scale``."""
    spec = get_scenario("paper-default-full-scale")
    return replace(spec, duration_s=hours * HOUR, metrics_window_s=None)


SPECS = {
    "paper-default": get_scenario("paper-default").scaled(0.25),
    "multi-locality": get_scenario("multi-locality").scaled(0.25),
    "partition-heal-reconcile": get_scenario("partition-heal-reconcile").scaled(0.25),
    # rotated windows: 8 queryable websites of 20
    "adversarial-hotspots": replace(
        get_scenario("adversarial-hotspots").scaled(0.25), num_websites=20
    ),
    "table1-half-hour": table1_spec(0.5),
}
PLACEMENTS = {
    "inline": {},
    "pooled": {"shards": 2},
    "dealt": {"shards": 4, "shard_jobs": 1},
}


def documents(result):
    bundle = run_documents(result)
    return bundle[RESULT_FILENAME], bundle[DIGEST_FILENAME]


def run_plan(spec, seed: int, plan, shards: int = 1, shard_jobs=None):
    """What ``Session.run_system("flower")`` does, with the plan an argument:
    the flower documents and the peer count the run leaves behind."""
    session = Session(spec, seed=seed)
    run, _stats = sharded.run_blocks(
        session.experiment, plan, (session.attach_models,),
        shards=shards, jobs=shard_jobs, spec=spec,
    )
    result = ScenarioResult(spec, seed, {"flower": summarise_system(spec, "flower", run)})
    return documents(result), session.experiment.last_flower_system.num_content_peers


@lru_cache(maxsize=None)
def monolithic(name: str, seed: int):
    """The reference bytes — the plan of one whole-catalogue block (``None``:
    the seed's topology cannot host the spec)."""
    try:
        return run_plan(SPECS[name], seed, None)
    except InfeasibleScenarioError:
        return None


# -- (a) equivalence ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SPECS))
@settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_any_block_plan_any_placement_is_the_monolithic_run(name, data):
    spec = SPECS[name]
    seed = data.draw(st.sampled_from(SEEDS), label="seed")
    placement = data.draw(st.sampled_from(sorted(PLACEMENTS)), label="placement")
    websites = [website for block in plan_blocks(spec) for website in block]
    labels = data.draw(
        st.lists(st.integers(0, 7), min_size=len(websites), max_size=len(websites)),
        label="block of each website",
    )
    plan = tuple(
        tuple(site for site, label in zip(websites, labels) if label == wanted)
        for wanted in sorted(set(labels))
    )
    reference = monolithic(name, seed)
    if reference is None:
        with pytest.raises(InfeasibleScenarioError):
            run_plan(spec, seed, plan, **PLACEMENTS[placement])
        return
    assert run_plan(spec, seed, plan, **PLACEMENTS[placement]) == reference


@pytest.mark.parametrize("name", sorted(SPECS))
def test_the_default_plan_is_the_monolithic_run_at_every_seed(name):
    for seed in SEEDS:
        reference = monolithic(name, seed)
        if reference is not None:
            assert documents(Session(SPECS[name], seed=seed).run()) == reference[0]


def test_algorithm3_retry_bound_does_not_depend_on_the_block_plan():
    """Algorithm 3 tries as many stale holders in a one-website block as in
    the whole catalogue: the bound is the deployment's, not the block's."""
    session = Session(SPECS["paper-default"], seed=42)
    config = session.experiment.setup.flower
    website = session.experiment.catalog.websites[0]
    wanted = website.object_id(0)
    # More stale entries than a block staffs directories, fewer than the deployment.
    stale = config.max_redirection_attempts + config.num_localities
    assert stale + 1 <= config.max_content_overlay_size

    def served(owned):
        _, system = session.experiment.build_flower(owned)
        directory = system.directory_for(website.name, 0)
        clients = [
            host for host in system.topology.hosts_in_locality(0)
            if host not in system.reserved_hosts
        ]

        def query(query_id, host):
            return system.handle_query(ResolvedQuery(
                query_id, 0.0, website.name, wanted, 0, host, is_new_client=True
            ))

        query(0, clients[0])  # the one real holder, indexed first
        directory.increment_ages()
        for index in range(stale):  # fresher entries of holders long gone
            directory.register_client(f"gone-{index}", wanted)
        record = query(1, clients[1])
        return record.outcome, record.provider, directory.queries_processed

    whole = served(None)
    assert whole[0] is QueryOutcome.LOCAL_OVERLAY_HIT
    assert served(frozenset({website.name})) == whole


def test_a_worker_that_inherits_nothing_rebuilds_the_run():
    """The ``spawn`` start method: no forked environment, same rows."""
    spec = SPECS["partition-heal-reconcile"]
    session = Session(spec, seed=42)
    plan = plan_blocks(spec)
    run = sharded.BlockedRun(session.experiment, plan, (session.attach_models,))
    indices = tuple(range(len(plan)))
    assert sharded._placed_run is None
    tally, rows = sharded._run_placement((spec, 42, plan, indices))
    ours, our_rows = run.run_placement(indices, whole_run=False)
    assert (rows.outcomes, rows.latencies, rows.providers) == (
        our_rows.outcomes, our_rows.latencies, our_rows.providers
    )
    assert (tally.events_fired, tally.num_content_peers) == (
        ours.events_fired, ours.num_content_peers
    )


# -- (b) one loop ---------------------------------------------------------------

#: the standard specs whose models draw from globally-ordered streams
WHOLE_CATALOGUE = (
    "heavy-churn", "correlated-failures", "gossip-lossy", "cascading-directory-failures"
)


@pytest.fixture
def blocks_run(monkeypatch):
    """The block indices each ``BlockedRun.run_block`` call was given."""
    run_block, calls = sharded.BlockedRun.run_block, []

    def counted(self, index, rows, slots):
        calls.append(index)
        return run_block(self, index, rows, slots)

    monkeypatch.setattr(sharded.BlockedRun, "run_block", counted)
    return calls


def test_every_registered_spec_and_a_bare_runner_reach_the_one_block_runner(blocks_run):
    specs = list(iter_scenarios())
    assert len(specs) == 21
    whole = set()
    for spec in specs:
        tiny = spec.scaled(0.25 if spec.tier == "standard" else 0.02)
        del blocks_run[:]
        Session(tiny, seed=42).run_system("flower")
        if inseparable_reason(tiny) is None:
            assert blocks_run == list(range(len(plan_blocks(tiny)))), spec.name
        else:
            assert blocks_run == [0], spec.name
            whole.add(spec.name)
    assert whole == {*WHOLE_CATALOGUE}
    assert inseparable_reason(get_scenario("squirrel-head-to-head")) is None
    del blocks_run[:]
    runner = Session(SPECS["paper-default"], seed=42).experiment
    assert sharded.run_blocks(runner)[0].num_queries > 0
    assert blocks_run == [0]
    assert isinstance(runner.last_flower_system, driver.FlowerCDN)


@pytest.mark.parametrize("name", WHOLE_CATALOGUE)
def test_a_whole_catalogue_block_keeps_its_system_and_injectors(name):
    spec = get_scenario(name).scaled(0.25)
    for seed in SEEDS:
        session = Session(spec, seed=seed)
        result = session.run()
        system = session.experiment.last_flower_system
        assert isinstance(system, driver.FlowerCDN)
        assert system.num_content_peers > 0
        assert system.metrics.num_queries == result.flower.metrics["num_queries"]
        assert session.last_shard_stats is None
        assert session.last_injectors == session.experiment.last_injectors != []
        logs = [injector.log for injector in session.last_injectors]
        # (host outages and gossip loss fail no peer and reconcile nothing:
        # an empty log; a lost message shows in delivery_stats)
        assert any(logs) or name in ("cascading-directory-failures", "gossip-lossy")
        # ...and, being one block, cannot be dealt over workers: the error
        # names the model that keeps the catalogue whole.
        with pytest.raises(ValueError, match="model '.*' is not website-separable"):
            Session(spec, seed=seed, shards=2)


def test_placing_a_pair_moves_no_byte_of_either_system():
    spec = get_scenario("squirrel-head-to-head").scaled(0.25)
    reference = Session(spec, seed=42).run()
    assert set(reference.systems) == {"flower", "squirrel"}
    for placement in ({"shards": 2}, {"shards": 2, "shard_jobs": 1}, {"shards": 4},
                      {"shards": 4, "shard_jobs": 1}):
        session = Session(spec, seed=42, **placement)
        placed = session.run()
        assert run_documents(placed) == run_documents(reference)
        assert placed.squirrel.to_dict() == reference.squirrel.to_dict()
        assert session.last_shard_stats.num_shards == placement["shards"]
        assert session.last_injectors == []


# -- (c) liveness ---------------------------------------------------------------


@pytest.mark.parametrize("name", ["adversarial-hotspots", "partition-heal-reconcile"])
def test_a_block_is_dead_before_the_next_one_bootstraps(name, monkeypatch):
    alive = []

    class WatchedFlowerCDN(driver.FlowerCDN):
        def bootstrap(self):
            # Every earlier block is gone already — by reference counting:
            # the collector is off for the whole run.
            assert [ref for ref in alive if ref() is not None] == []
            if self._owned_websites:  # (the static ring's system owns nothing and stays)
                alive.append(weakref.ref(self))
            super().bootstrap()

    monkeypatch.setattr(driver, "FlowerCDN", WatchedFlowerCDN)
    spec = SPECS[name]  # without and with injectors (the partition's delivery gate)
    gc.collect()
    gc.disable()
    try:
        session = Session(spec, seed=42)
        session.run()
        assert len(alive) == len(plan_blocks(spec)) >= 4
        assert all(ref() is None for ref in alive)
        assert session.last_injectors == []  # a block's injectors go with the block
        assert not [obj for obj in gc.get_objects() if isinstance(obj, ContentPeer)]
    finally:
        gc.enable()


def test_each_block_leaves_nothing_for_the_collector(monkeypatch):
    """A block that survived its ``shutdown()`` would be exactly the memory
    the decomposition claims to free."""
    run_block = sharded.BlockedRun.run_block
    leftovers = []

    def watched(self, index, rows, slots):
        gc.collect()
        tally = run_block(self, index, rows, slots)
        leftovers.append(gc.collect())
        return tally

    monkeypatch.setattr(sharded.BlockedRun, "run_block", watched)
    for name in ("paper-default", "partition-heal-reconcile"):
        Session(SPECS[name], seed=42).run()
    assert leftovers and set(leftovers) == {0}


@pytest.mark.parametrize("name", scenario_names("standard"))
def test_a_finished_session_is_freed_by_reference_counting(name):
    session = Session(get_scenario(name).scaled(0.25), seed=42)
    result = session.run()
    gc.collect()  # whatever the run itself left behind is not the session's
    gc.disable()
    try:
        del session, result
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_blocked_table1_run_peaks_well_below_the_monolithic_one():
    def peak(run) -> int:
        session = Session(table1_spec(0.5), seed=42)
        session.resolved_trace()
        gc.collect()
        tracemalloc.start()
        try:
            run(session)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    blocked = peak(lambda session: session.run_system("flower"))
    monolithic_peak = peak(
        lambda session: sharded.run_blocks(session.experiment, None, (session.attach_models,))
    )
    assert blocked <= 0.65 * monolithic_peak


# -- (d) the harness contract ---------------------------------------------------


def test_driver_level_constructor_swaps_see_every_block(monkeypatch):
    """What ``benchmarks/e2e/tracing.py`` does: subclasses put into
    ``repro.experiments.driver`` are what every block is built from."""
    built = {"sims": [], "systems": [], "bootstraps": 0, "runs": 0}

    class CountingSimulator(driver.Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built["sims"].append(self.__class__)

        def run(self, until=None):
            built["runs"] += 1
            return super().run(until)

    class CountingFlowerCDN(driver.FlowerCDN):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built["systems"].append(self._owned_websites)

        def bootstrap(self):
            built["bootstraps"] += 1
            return super().bootstrap()

    monkeypatch.setattr(driver, "Simulator", CountingSimulator)
    monkeypatch.setattr(driver, "FlowerCDN", CountingFlowerCDN)
    spec = SPECS["adversarial-hotspots"]
    session = Session(spec, seed=42)
    run = session.run_system("flower")
    blocks = plan_blocks(spec)
    # One system per block, plus the one that places the static ring and owns nothing.
    assert built["systems"] == [frozenset(), *map(frozenset, blocks)]
    assert built["bootstraps"] == len(built["sims"]) == len(blocks) + 1
    assert built["runs"] == len(blocks)  # each straight to the horizon
    assert run.events_fired > run.num_queries > 0


def test_shard_stats_exist_per_worker_only():
    spec = SPECS["paper-default"]
    session = Session(spec, seed=42)
    session.run()
    assert session.last_shard_stats is None
    for shard_jobs in (1, 2):
        session = Session(spec, seed=42, shards=2, shard_jobs=shard_jobs)
        result = session.run()
        stats = session.last_shard_stats
        assert len(stats.setup_s_per_shard) == len(stats.dispatch_s_per_shard) == 2
        assert sum(stats.queries_per_shard) == result.flower.metrics["num_queries"]


def test_the_census_answers_for_the_whole_run():
    spec = SPECS["multi-locality"]
    reference = Session(spec, seed=42)
    sharded.run_blocks(reference.experiment, None, (reference.attach_models,))
    system = reference.experiment.last_flower_system
    for placement in PLACEMENTS.values():
        session = Session(spec, seed=42, **placement)
        session.run()
        census = session.experiment.last_flower_system
        assert census.num_content_peers == system.num_content_peers > 0
        assert census.num_directory_peers == system.num_directory_peers
        assert census.active_overlays() == system.active_overlays()
        assert not any(isinstance(value, dict) for value in vars(census).values())


def test_one_environment_per_run_however_many_blocks(monkeypatch):
    calls = {"topology": 0, "generate_trace": 0, "assign_trace": 0}

    def counted(cls, method, key):
        original = getattr(cls, method)

        def wrapper(self, *args, **kwargs):
            calls[key] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, wrapper)

    counted(driver.Topology, "__init__", "topology")
    counted(driver.QueryGenerator, "generate_trace", "generate_trace")
    counted(driver.ClientAssigner, "assign_trace", "assign_trace")
    spec = SPECS["adversarial-hotspots"]
    for placement in ({}, {"shards": 4, "shard_jobs": 1}, {"shards": 2}):
        for key in calls:
            calls[key] = 0
        session = Session(spec, seed=42, **placement)
        trace = session.resolved_trace()  # the harness's set-up phase: reused, not redone
        session.run()
        assert session.resolved_trace() is trace
        assert calls == {"topology": 1, "generate_trace": 1, "assign_trace": 1}
