"""Determinism tests for website-blocked execution and its placement.

The contract is exact: a run cut into blocks must reproduce the one-block
run *byte for byte* at full precision — metrics, phases and every series
point — independent of the shard count and the worker-pool size.  These
tests pin that contract, plus the block planning, what may be cut at all and
the RNG stream scoping the contract rests on.  (``test_sim_blocks.py`` holds
the property tests over block plans and the liveness / harness contract of
the block runner.)
"""

from dataclasses import replace

import pytest

from repro.core.sharding import inseparable_reason, plan_blocks, queryable_websites
from repro.scenarios.artifacts import run_documents
from repro.scenarios.library import get_scenario
from repro.scenarios.models import ModelRef
from repro.scenarios.runner import ScenarioResult, run_scenario, summarise_system
from repro.session import Session
from repro.sim.rng import RandomStreams
from repro.sim.sharded import run_blocks

SEED = 42


def _result_dict(name, scale, **kwargs):
    spec = get_scenario(name).scaled(scale)
    return run_scenario(spec, seed=SEED, **kwargs).to_dict()


def monolithic_result(spec, seed=SEED):
    """The reference: the whole catalogue as one block, models attached."""
    session = Session(spec, seed=seed)
    run, _stats = run_blocks(session.experiment, None, (session.attach_models,))
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
        assert sum(stats.events_per_shard) == run.events_fired
        assert stats.num_windows == 1  # a block runs straight to the horizon
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

    def test_plan_is_deterministic_and_no_placement_is_empty(self):
        spec = get_scenario("paper-default").scaled(0.25)
        assert plan_blocks(spec) == plan_blocks(spec)
        # More shards than blocks: a surplus placement would hold no work, so
        # none is built.
        blocks = len(plan_blocks(spec))
        session = Session(spec, seed=SEED, shards=blocks + 2, shard_jobs=1)
        session.run_system("flower")
        stats = session.last_shard_stats
        assert stats.num_shards == len(stats.queries_per_shard) == blocks
        assert 0 not in stats.queries_per_shard
        assert 0 not in stats.events_per_shard

    @pytest.mark.parametrize("active_websites", [1, 2])
    def test_surplus_shards_move_no_byte(self, active_websites):
        spec = replace(
            get_scenario("paper-default").scaled(0.1), active_websites=active_websites
        )
        blocks = len(plan_blocks(spec))
        assert blocks == active_websites
        reference = run_documents(Session(spec, seed=SEED).run())
        # (shard_jobs=1: every placement runs inline, so a large count starts
        # no process)
        for shards in (blocks + 1, 1000):
            session = Session(spec, seed=SEED, shards=shards, shard_jobs=1)
            assert run_documents(session.run()) == reference
            assert len(session.last_shard_stats.queries_per_shard) == blocks

    def test_rotating_programs_expand_the_queryable_set(self):
        spec = get_scenario("partition-heal-reconcile").scaled(0.25)
        assert len(queryable_websites(spec)) >= spec.active_websites
        assert len(plan_blocks(get_scenario("adversarial-hotspots"))) == 8


class TestValidation:
    def test_churn_specs_are_rejected(self):
        spec = get_scenario("heavy-churn")
        assert "churn model 'poisson'" in inseparable_reason(spec)
        with pytest.raises(ValueError, match="churn model 'poisson'"):
            replace(spec, shards=2)

    def test_multi_system_specs_are_accepted(self):
        """Separability follows the models only: the Flower half of a pair is
        cut and placed like any flower run, Squirrel stays one system."""
        pair = get_scenario("squirrel-head-to-head").scaled(0.25)
        assert inseparable_reason(pair) is None
        assert replace(pair, shards=2).shards == 2
        baseline = run_scenario(pair, seed=SEED).to_dict()
        assert set(baseline["systems"]) == {"flower", "squirrel"}
        assert Session(pair, seed=SEED, shards=2).run().to_dict() == baseline

    def test_stream_drawing_fault_models_are_rejected(self):
        spec = get_scenario("cascading-directory-failures")
        assert "fault model 'cascading-directory-failures'" in inseparable_reason(spec)
        with pytest.raises(ValueError, match="fault model 'cascading-directory-failures'"):
            replace(spec, shards=2)
        with pytest.raises(ValueError, match="fault model"):
            Session(spec, shards=2)

    def test_shardable_library_scenarios_validate(self):
        for name in (
            "paper-default",
            "multi-locality",
            "locality-partition",
            "partition-heal-reconcile",
            "paper-default-scale10",
            "squirrel-head-to-head-full-scale",
        ):
            assert replace(get_scenario(name), shards=2).shards == 2

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
        # The default run is one whole-catalogue block on its own.
        assert Session(spec, seed=3).run().to_dict() == monolithic_result(spec, 3).to_dict()
        # The converse: the "none" model makes an enabled profile irrelevant.
        idle = replace(get_scenario("heavy-churn"), churn_model=ModelRef("none"))
        assert inseparable_reason(idle) is None

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
            assert "fault model 'tmp-silent-model'" in inseparable_reason(spec)
            with pytest.raises(ValueError, match="fault model 'tmp-silent-model'"):
                replace(spec, shards=2)
            Silent.website_separable = lambda self, spec: True
            assert inseparable_reason(spec) is None
            assert replace(spec, shards=2).shards == 2
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
