"""Tests for the unified Session facade.

The contract: ``Session`` is the single execution path, and the wrappers
around it (``run_scenario``, flat ``ScenarioSpec`` kwargs + ``to_setup``)
produce byte-identical results through it.
"""

import dataclasses

import pytest

from repro import Session as SessionFromTopLevel
from repro.core.churn import ChurnInjector
from repro.experiments.driver import ExperimentRunner, ExperimentSetup
from repro.scenarios import ScenarioSpec, get_scenario, run_scenario
from repro.session import Session
from repro.sim.sharded import run_blocks

TINY_SCALE = 0.1


class TestConstruction:
    def test_exported_at_the_top_level(self):
        assert SessionFromTopLevel is Session

    def test_from_name_resolves_and_scales(self):
        session = Session.from_name("paper-default", scale=TINY_SCALE)
        assert session.spec.name == "paper-default"
        assert session.spec.num_hosts < get_scenario("paper-default").num_hosts

    def test_from_spec_seed_override(self):
        spec = get_scenario("paper-default").scaled(TINY_SCALE)
        session = Session.from_spec(spec, seed=9)
        assert session.seed == 9
        assert session.setup.seed == 9

    def test_unknown_name_is_a_clean_error(self):
        with pytest.raises(KeyError, match="known scenarios"):
            Session.from_name("does-not-exist")

    def test_exposes_the_underlying_layers(self):
        session = Session.from_name("paper-default", scale=TINY_SCALE)
        assert isinstance(session.experiment, ExperimentRunner)
        assert isinstance(session.setup, ExperimentSetup)
        trace = session.resolved_trace()
        assert len(trace) > 0
        sim, system = session.build_flower()
        assert system.num_directory_peers > 0


class TestExecution:
    def test_run_produces_a_scenario_result(self):
        result = Session.from_name("paper-default", scale=TINY_SCALE, seed=5).run()
        assert result.seed == 5
        assert 0.0 <= result.flower.metrics["hit_ratio"] <= 1.0

    def test_run_system_flower_and_squirrel_share_the_trace(self):
        session = Session.from_name("squirrel-head-to-head", scale=TINY_SCALE)
        flower = session.run_system("flower")
        squirrel = session.run_system("squirrel")
        assert flower.num_queries == squirrel.num_queries

    def test_run_system_rejects_unknown_systems(self):
        session = Session.from_name("paper-default", scale=TINY_SCALE)
        with pytest.raises(ValueError, match="unknown system"):
            session.run_system("akamai")

    def test_two_sessions_are_byte_identical(self):
        spec = get_scenario("diurnal-cycle").scaled(TINY_SCALE)
        first = Session.from_spec(spec, seed=4).run().to_dict()
        second = Session.from_spec(spec, seed=4).run().to_dict()
        assert first == second


class TestBackCompatShims:
    """The wrappers around Session build identical state."""

    def test_flat_kwargs_construct_the_same_setup_as_before(self):
        """A spec written against the pre-program API (flat kwargs only)
        composes an ExperimentSetup equal to one assembled by hand."""
        spec = ScenarioSpec(
            name="legacy-flat",
            duration_s=1800.0,
            query_rate_per_s=1.5,
            num_websites=10,
            active_websites=2,
            objects_per_website=50,
            num_localities=3,
            max_content_overlay_size=20,
            num_hosts=120,
            seed=13,
        )
        setup = spec.to_setup()
        assert setup.flower == spec.to_flower_config()
        assert setup.phases == ()
        assert setup.topology.num_hosts == 120
        assert setup.workload.query_rate_per_s == 1.5
        # And the new fields sit at their do-nothing defaults.
        assert spec.program == ()
        assert spec.churn_model.name == "poisson"
        assert spec.fault_model.name == "none"
        assert spec.content_cache_capacity is None

    def test_run_scenario_matches_session(self):
        spec = get_scenario("cold-start").scaled(TINY_SCALE)
        assert (
            run_scenario(spec, seed=7).metrics_digest()
            == Session.from_spec(spec, seed=7).run().metrics_digest()
        )

    def test_a_churn_injector_is_an_attachment_of_the_one_block_run(self):
        """Attachments no spec can name run as one whole-catalogue block
        below the session, which keeps what they built with the system."""
        spec = get_scenario("heavy-churn").scaled(TINY_SCALE)
        session = Session(spec, seed=7)
        result, stats = run_blocks(
            session.experiment, None, (lambda system: ChurnInjector(system, spec.churn),)
        )
        assert result.num_queries > 0 and stats is None
        (injector,) = session.last_injectors
        assert injector.events_injected == len(injector.log) > 0
        # ... the very run the spec's poisson model makes of the same profile
        assert result.hit_ratio == Session(spec, seed=7).run_system("flower").hit_ratio

    def test_replace_still_supports_every_historical_kwarg(self):
        spec = get_scenario("paper-default")
        tweaked = dataclasses.replace(
            spec, query_rate_per_s=9.0, zipf_alpha=1.0, view_size=20
        )
        assert tweaked.to_setup().workload.query_rate_per_s == 9.0


class TestCacheBoundedPeers:
    def test_capacity_flows_into_the_flower_config(self):
        spec = get_scenario("cache-bounded-peers")
        assert spec.to_setup().flower.content_cache_capacity == 25

    def test_bounded_caches_lower_the_hit_ratio(self):
        bounded_spec = get_scenario("cache-bounded-peers").scaled(0.2)
        unbounded_spec = dataclasses.replace(bounded_spec, content_cache_capacity=None)
        bounded = Session.from_spec(bounded_spec, seed=3).run()
        unbounded = Session.from_spec(unbounded_spec, seed=3).run()
        assert (
            bounded.flower.metrics["hit_ratio"]
            < unbounded.flower.metrics["hit_ratio"]
        )

    def test_scaled_keeps_the_capacity_binding(self):
        spec = get_scenario("cache-bounded-peers").scaled(0.25)
        assert spec.content_cache_capacity is not None
        assert spec.content_cache_capacity < spec.objects_per_website
