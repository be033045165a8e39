"""Determinism tests for website-blocked execution and its placement.

The contract is exact: a run cut into blocks must reproduce the monolithic
run *byte for byte* at full precision — metrics, phases and every series
point — independent of the shard count and the worker-pool size.  These
tests pin that contract, plus the block planning, the conservative windows
and the RNG stream scoping the contract rests on.  (``test_sim_blocks.py``
holds the property tests over block plans and the liveness / harness
contract of the block runner.)
"""

from dataclasses import replace

import pytest

from repro.core.sharding import (
    MAX_WINDOWS,
    conservative_lookahead_s,
    plan_blocks,
    queryable_websites,
    validate_shardable,
    window_boundaries,
)
from repro.scenarios.library import get_scenario
from repro.scenarios.models import ModelRef
from repro.scenarios.runner import ScenarioResult, run_scenario, summarise_system
from repro.session import Session
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

SEED = 42


def _result_dict(name, scale, **kwargs):
    spec = get_scenario(name).scaled(scale)
    return run_scenario(spec, seed=SEED, **kwargs).to_dict()


def monolithic_result(spec, seed=SEED):
    """The reference: all flowers interleaved in one system, models attached."""
    session = Session(spec, seed=seed)
    run = session.experiment.run_flower(attachments=(session.attach_models,))
    return ScenarioResult(spec, seed, {"flower": summarise_system(spec, "flower", run)})


def _monolithic_dict(name, scale):
    return monolithic_result(get_scenario(name).scaled(scale)).to_dict()


class TestShardCountIndependence:
    """A blocked run equals the monolithic run at full precision, wherever
    its blocks are placed."""

    def test_shard_counts_reproduce_single_process(self):
        baseline = _monolithic_dict("paper-default", 0.25)
        for shards in (1, 2, 4):
            assert _result_dict("paper-default", 0.25, shards=shards) == baseline

    def test_more_shards_than_websites_reproduces_single_process(self):
        # paper-default at scale 0.25 has 5 websites; 7 shards leave most
        # workers without a block at all.
        spec = get_scenario("paper-default").scaled(0.25)
        assert spec.num_websites < 7
        baseline = _monolithic_dict("paper-default", 0.25)
        assert _result_dict("paper-default", 0.25, shards=7) == baseline

    def test_pooled_workers_match_inline(self):
        spec = get_scenario("paper-default").scaled(0.1)
        inline = run_scenario(spec, seed=SEED, shards=2, shard_jobs=1).to_dict()
        pooled = run_scenario(spec, seed=SEED, shards=2, shard_jobs=2).to_dict()
        assert pooled == inline

    def test_session_records_shard_stats(self):
        spec = get_scenario("paper-default").scaled(0.1)
        session = Session(spec, seed=SEED, shards=2, shard_jobs=1)
        run = session.run_system("flower")
        stats = session.last_shard_stats
        assert stats is not None
        assert stats.num_shards == 2
        assert stats.total_events == run.events_fired
        assert stats.num_windows == len(
            window_boundaries(spec.duration_s, conservative_lookahead_s(spec))
        )
        assert sum(stats.queries_per_shard) == run.num_queries
        assert stats.critical_path_s == max(stats.dispatch_s_per_shard)


class TestResilienceComposition:
    """PR 7's partition-aware reachability composes with sharding."""

    def test_locality_partition_sharded_matches_incl_resilience(self):
        baseline = _monolithic_dict("locality-partition", 0.25)
        assert _result_dict("locality-partition", 0.25) == baseline
        assert _result_dict("locality-partition", 0.25, shards=2) == baseline

    def test_sharded_run_emits_the_resilience_block(self):
        spec = get_scenario("locality-partition").scaled(0.25)
        session = Session(spec, seed=SEED, shards=2, shard_jobs=1)
        run = session.run_system("flower")
        assert run.resilience is not None

    def test_reconcile_on_heal_sharded_matches(self):
        # partition-heal-reconcile republishes *every* alive directory's
        # summary at the heal — the scenario that forces block ownership to
        # cover the whole catalogue, not just the queryable websites.
        baseline = _monolithic_dict("partition-heal-reconcile", 0.25)
        assert _result_dict("partition-heal-reconcile", 0.25) == baseline
        assert _result_dict("partition-heal-reconcile", 0.25, shards=2) == baseline


class TestRngStreamScoping:
    """Website/overlay-scoped streams are what make shards independent."""

    def test_identically_named_streams_agree_across_processes(self):
        first = RandomStreams(master_seed=SEED)
        second = RandomStreams(master_seed=SEED)
        name = "gossip:subset:ws-3:1"
        assert [first.stream(name).random() for _ in range(20)] == [
            second.stream(name).random() for _ in range(20)
        ]

    def test_streams_are_isolated_from_other_streams_draws(self):
        # Draining another website's stream must not perturb this one:
        # that is precisely the property that lets a shard skip the
        # websites it does not own.
        noisy = RandomStreams(master_seed=SEED)
        for _ in range(100):
            noisy.stream("gossip:subset:ws-0:0").random()
        quiet = RandomStreams(master_seed=SEED)
        name = "gossip:subset:ws-1:2"
        assert [noisy.stream(name).random() for _ in range(20)] == [
            quiet.stream(name).random() for _ in range(20)
        ]

    def test_differently_scoped_streams_differ(self):
        streams = RandomStreams(master_seed=SEED)
        draws = {
            name: tuple(streams.stream(name).random() for _ in range(5))
            for name in (
                "gossip:subset:ws-0:0",
                "gossip:subset:ws-0:1",
                "gossip:subset:ws-1:0",
                "dring:bootstrap:ws-0",
            )
        }
        assert len(set(draws.values())) == len(draws)


class TestConservativeWindows:
    def test_final_boundary_is_exactly_the_duration(self):
        boundaries = window_boundaries(100.0, 7.0)
        assert boundaries[-1] == 100.0
        assert all(b1 < b2 for b1, b2 in zip(boundaries, boundaries[1:]))

    def test_degenerate_lookaheads_collapse_to_one_window(self):
        assert window_boundaries(100.0, 0.0) == (100.0,)
        assert window_boundaries(100.0, 100.0) == (100.0,)
        assert window_boundaries(100.0, 500.0) == (100.0,)

    def test_pathological_lookahead_is_capped(self):
        boundaries = window_boundaries(10_000.0, 1e-3)
        assert len(boundaries) <= MAX_WINDOWS
        assert boundaries[-1] == 10_000.0

    def test_invalid_duration_rejected(self):
        with pytest.raises(ValueError):
            window_boundaries(0.0, 1.0)

    def test_boundary_event_fires_exactly_once(self):
        # An event scheduled exactly on a window barrier belongs to the
        # window that barrier closes; the windowed run must fire it once
        # and reproduce the single run's schedule.
        def windowed_times():
            sim = Simulator(seed=1, end_time=10.0)
            fired = []
            for t in (1.0, 2.0, 2.0, 4.0, 9.5, 10.0):
                sim.at(t, lambda t=t: fired.append((t, sim.now)))
            for boundary in window_boundaries(10.0, 2.0):
                sim.run(until=boundary)
            return fired, sim.events_fired

        sim = Simulator(seed=1, end_time=10.0)
        fired_single = []
        for t in (1.0, 2.0, 2.0, 4.0, 9.5, 10.0):
            sim.at(t, lambda t=t: fired_single.append((t, sim.now)))
        sim.run(until=10.0)

        fired_windowed, events_windowed = windowed_times()
        assert fired_windowed == fired_single
        assert events_windowed == sim.events_fired
        assert len(fired_windowed) == 6

    def test_lookahead_includes_latency_floor(self):
        spec = get_scenario("paper-default").scaled(0.1)
        period = min(spec.gossip_period_s, spec.effective_keepalive_period_s)
        lookahead = conservative_lookahead_s(spec)
        assert lookahead > period


class TestShardPlanning:
    def test_plan_covers_the_whole_catalog_disjointly(self):
        for name in ("paper-default", "adversarial-hotspots", "large-catalog"):
            spec = get_scenario(name)
            blocks = plan_blocks(spec)
            owned = [name for block in blocks for name in block]
            assert len(owned) == len(set(owned)) == spec.num_websites
            # One flower per block: its queryable website leads, riders follow.
            assert tuple(block[0] for block in blocks) == queryable_websites(spec)
            assert not {name for block in blocks for name in block[1:]} & set(
                queryable_websites(spec)
            )

    def test_plan_is_deterministic_and_shards_may_be_empty(self):
        spec = get_scenario("paper-default").scaled(0.25)
        assert plan_blocks(spec) == plan_blocks(spec)
        # More shards than blocks: the surplus workers are dealt nothing.
        shards = len(plan_blocks(spec)) + 2
        session = Session(spec, seed=SEED, shards=shards, shard_jobs=1)
        session.run_system("flower")
        stats = session.last_shard_stats
        assert len(stats.queries_per_shard) == shards
        assert stats.queries_per_shard.count(0) == stats.events_per_shard.count(0) == 2

    def test_rotating_programs_expand_the_queryable_set(self):
        spec = get_scenario("partition-heal-reconcile").scaled(0.25)
        assert len(queryable_websites(spec)) >= spec.active_websites
        assert len(plan_blocks(get_scenario("adversarial-hotspots"))) == 8


class TestValidation:
    def test_churn_specs_are_rejected(self):
        spec = get_scenario("heavy-churn")
        with pytest.raises(ValueError, match="churn"):
            validate_shardable(spec)
        with pytest.raises(ValueError, match="churn"):
            replace(spec, shards=2)

    def test_multi_system_specs_are_rejected(self):
        with pytest.raises(ValueError, match="flower-only"):
            validate_shardable(get_scenario("squirrel-head-to-head"))

    def test_stream_drawing_fault_models_are_rejected(self):
        with pytest.raises(ValueError, match="fault model"):
            validate_shardable(get_scenario("cascading-directory-failures"))

    def test_shardable_library_scenarios_validate(self):
        for name in (
            "paper-default",
            "multi-locality",
            "locality-partition",
            "partition-heal-reconcile",
            "paper-default-scale10",
        ):
            validate_shardable(get_scenario(name))

    def test_spec_and_session_reject_bad_shard_counts(self):
        spec = get_scenario("paper-default")
        with pytest.raises(ValueError, match="shards"):
            replace(spec, shards=0)
        with pytest.raises(ValueError, match="shards"):
            Session(spec.scaled(0.1), shards=0)

    def test_separability_is_the_models_not_the_profiles(self):
        """Burst churn on an idle churn *profile* draws its victims from one
        global list: it used to pass validation and silently return a
        different run (hit ratio 0.687 against 0.710 monolithic)."""
        spec = replace(
            get_scenario("paper-default").scaled(0.2),
            churn_model=ModelRef.of("burst", period_s=200, burst_size=3),
        )
        assert not spec.churn.is_enabled
        with pytest.raises(ValueError, match="churn model 'burst' is not website-separable"):
            Session(spec, seed=3, shards=2, shard_jobs=1)
        with pytest.raises(ValueError, match="not website-separable"):
            replace(spec, shards=2)
        # The default run falls back to the monolithic system on its own.
        assert Session(spec, seed=3).run().to_dict() == monolithic_result(spec, 3).to_dict()
        # The converse: the "none" model makes an enabled profile irrelevant.
        validate_shardable(replace(get_scenario("heavy-churn"), churn_model=ModelRef("none")))

    def test_models_registered_from_outside_run_monolithically(self):
        from repro.scenarios.models import register_fault_model, unregister_fault_model

        @register_fault_model("tmp-silent-model")
        class Silent:
            def attach(self, system, spec):
                return None

        try:
            spec = replace(
                get_scenario("paper-default").scaled(0.1), fault_model=ModelRef("tmp-silent-model")
            )
            with pytest.raises(ValueError, match="fault model 'tmp-silent-model'"):
                validate_shardable(spec)
            Silent.website_separable = lambda self, spec: True
            validate_shardable(spec)
        finally:
            unregister_fault_model("tmp-silent-model")


class TestInfeasibleSeed:
    """A (spec, seed) no shard can bootstrap fails as it does unsharded."""

    @pytest.mark.parametrize("shard_jobs", [1, 2], ids=["inline", "pooled"])
    def test_session_raises_the_typed_error(self, monkeypatch, shard_jobs):
        from repro.core.system import InfeasibleScenarioError
        from repro.network.topology import Topology

        built = []
        real_init = Topology.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Topology, "__init__", counting_init)
        session = Session.from_spec(
            get_scenario("multi-locality").scaled(0.25),
            seed=7, shards=2, shard_jobs=shard_jobs,
        )
        with pytest.raises(InfeasibleScenarioError) as excinfo:
            session.run()
        error = excinfo.value
        assert (error.locality, error.hosts_available, error.directories_required) == (5, 4, 5)
        # The environment is the parent's, built once however the blocks are
        # placed; it finds out while resolving the trace, before any worker.
        assert len(built) == 1
