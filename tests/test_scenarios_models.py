"""Tests for the pluggable churn/fault model registries and built-in models."""

import dataclasses

import pytest

from repro.scenarios import (
    ChurnProfile,
    ModelRef,
    ScenarioSpec,
    churn_model_names,
    fault_model_names,
    get_scenario,
    register_churn_model,
    register_fault_model,
    run_scenario,
)
from repro.scenarios.models import (
    ReachabilityInjector,
    build_churn_model,
    build_fault_model,
    unregister_churn_model,
    unregister_fault_model,
)
from repro.session import Session

TINY_SCALE = 0.1


class TestModelRef:
    def test_of_sorts_params(self):
        ref = ModelRef.of("x", b=2, a=1)
        assert ref.params == (("a", 1), ("b", 2))
        assert ref.kwargs == {"a": 1, "b": 2}

    def test_to_dict(self):
        assert ModelRef.of("x", k=3).to_dict() == {"name": "x", "params": {"k": 3}}

    def test_refs_are_hashable_inside_frozen_specs(self):
        hash(ModelRef.of("correlated-locality", locality=1))


class TestRegistries:
    def test_builtin_models_registered(self):
        assert {"none", "poisson", "burst"} <= set(churn_model_names())
        assert {"none", "correlated-locality"} <= set(fault_model_names())

    def test_unknown_model_rejected_at_spec_construction(self):
        with pytest.raises(ValueError, match="unknown churn model"):
            ScenarioSpec(name="bad", churn_model=ModelRef("martian"))
        with pytest.raises(ValueError, match="unknown fault model"):
            ScenarioSpec(name="bad", fault_model=ModelRef("martian"))

    def test_bad_params_rejected_at_spec_construction(self):
        with pytest.raises(ValueError, match="invalid parameters"):
            ScenarioSpec(
                name="bad", fault_model=ModelRef.of("correlated-locality", banana=1)
            )
        with pytest.raises(ValueError, match="at_fraction"):
            build_fault_model(ModelRef.of("correlated-locality", at_fraction=2.0))

    def test_duplicate_registration_rejected(self):
        @register_churn_model("tmp-churn-model")
        class Tmp:
            def attach(self, system, spec):
                return None

        try:
            with pytest.raises(ValueError, match="already registered"):
                register_churn_model("tmp-churn-model", Tmp)
        finally:
            unregister_churn_model("tmp-churn-model")
        assert "tmp-churn-model" not in churn_model_names()

    @pytest.mark.parametrize(
        "register, unregister, build",
        [
            (register_churn_model, unregister_churn_model, build_churn_model),
            (register_fault_model, unregister_fault_model, build_fault_model),
        ],
    )
    def test_a_reregistered_model_is_checked_against_its_new_signature(
        self, register, unregister, build
    ):
        """The signature is kept per factory, so it leaves with the factory."""
        from repro.scenarios.models import _SIGNATURES

        class TakesA:
            def __init__(self, a=1):
                self.a = a

        class TakesB:
            def __init__(self, b=1):
                self.b = b

        try:
            register("tmp-signature", TakesA)
            for _ in range(2):  # first use and remembered use
                assert build(ModelRef.of("tmp-signature", a=2)).a == 2
                with pytest.raises(ValueError, match="invalid parameters .* 'b'"):
                    build(ModelRef.of("tmp-signature", b=2))
            assert TakesA in _SIGNATURES
            register("tmp-signature", TakesB, overwrite=True)
            assert TakesA not in _SIGNATURES
            for _ in range(2):
                assert build(ModelRef.of("tmp-signature", b=2)).b == 2
                with pytest.raises(ValueError, match="invalid parameters .* 'a'"):
                    build(ModelRef.of("tmp-signature", a=2))
        finally:
            unregister("tmp-signature")
        assert TakesB not in _SIGNATURES
        with pytest.raises(ValueError, match="unknown .* model 'tmp-signature'"):
            build(ModelRef.of("tmp-signature", b=2))

    def test_custom_fault_model_attaches_through_a_session(self):
        fired = []

        @register_fault_model("tmp-fault-model")
        class Tmp:
            def attach(self, system, spec):
                class Injector:
                    def start(self):
                        fired.append("start")

                    def stop(self):
                        fired.append("stop")

                return Injector()

        try:
            spec = dataclasses.replace(
                get_scenario("paper-default").scaled(TINY_SCALE),
                fault_model=ModelRef("tmp-fault-model"),
            )
            Session.from_spec(spec, seed=3).run()
            assert fired == ["start", "stop"]
        finally:
            unregister_fault_model("tmp-fault-model")


class TestBuiltinChurnModels:
    def test_poisson_model_with_idle_profile_attaches_nothing(self):
        spec = get_scenario("paper-default").scaled(TINY_SCALE)
        session = Session.from_spec(spec, seed=3)
        session.run()
        assert session.last_injectors == []

    def test_zero_rate_profile_is_idle(self):
        profile = ChurnProfile()
        assert not profile.is_enabled
        assert profile.to_config() is None

    def test_poisson_model_reproduces_the_legacy_churn_path(self):
        """Session + poisson model == a bare ``ChurnInjector`` attachment."""
        from repro.core.churn import ChurnInjector
        from repro.sim.sharded import run_blocks

        spec = get_scenario("heavy-churn").scaled(TINY_SCALE)
        via_session = run_scenario(spec, seed=11).metrics_digest()

        config = spec.churn.to_config()
        legacy, _stats = run_blocks(
            Session.from_spec(spec, seed=11).experiment,
            None,
            (lambda system: ChurnInjector(system, config),),
        )
        fresh = Session.from_spec(spec, seed=11).run_system("flower")
        assert legacy.num_queries == fresh.num_queries
        assert legacy.hit_ratio == fresh.hit_ratio
        assert legacy.average_lookup_latency_ms == fresh.average_lookup_latency_ms
        assert via_session["systems"]["flower"]["metrics"]["num_queries"] == legacy.num_queries

    def test_none_model_ignores_an_enabled_profile(self):
        spec = dataclasses.replace(
            get_scenario("heavy-churn").scaled(TINY_SCALE),
            churn_model=ModelRef("none"),
        )
        session = Session.from_spec(spec, seed=3)
        session.run()
        assert session.last_injectors == []

    def test_burst_model_fails_peers_in_bursts(self):
        spec = dataclasses.replace(
            get_scenario("paper-default").scaled(TINY_SCALE),
            churn_model=ModelRef.of("burst", period_s=200.0, burst_size=3),
        )
        session = Session.from_spec(spec, seed=3)
        session.run()
        (injector,) = session.last_injectors
        assert injector.log, "burst injector never fired"
        times = [entry.time for entry in injector.log]
        assert len({round(t, 6) for t in times}) < len(times) or len(times) >= 3

    def test_burst_model_validates_params(self):
        with pytest.raises(ValueError, match="period_s"):
            build_churn_model(ModelRef.of("burst", period_s=0.0))


class TestCorrelatedLocalityFaults:
    def make_session(self, **params):
        defaults = dict(at_fraction=0.5, locality=0, fraction=0.5)
        defaults.update(params)
        spec = dataclasses.replace(
            get_scenario("paper-default").scaled(TINY_SCALE),
            fault_model=ModelRef.of("correlated-locality", **defaults),
        )
        return Session.from_spec(spec, seed=3)

    def fault_log(self, session):
        (injector,) = session.last_injectors
        return injector.log

    def test_outage_fails_content_and_directory_peers_at_one_instant(self):
        session = self.make_session(fraction=1.0)
        session.run()
        log = self.fault_log(session)
        kinds = {entry.kind for entry in log}
        assert "correlated_content_failure" in kinds
        assert "correlated_directory_failure" in kinds
        at = session.spec.duration_s * 0.5
        assert all(entry.time == at for entry in log)

    def test_directories_can_be_excluded(self):
        session = self.make_session(include_directories=False)
        session.run()
        kinds = {entry.kind for entry in self.fault_log(session)}
        assert "correlated_directory_failure" not in kinds

    def test_boundary_aligned_event_still_fires(self):
        # An event landing exactly on a metrics-window boundary must fire
        # normally (scheduling at t == window edge is an ordinary event).
        session = self.make_session(at_fraction=1.0 / 3.0)
        session.run()
        at = session.spec.duration_s / 3.0
        assert any(entry.time == at for entry in self.fault_log(session))

    def test_repeating_outage_fires_multiple_times(self):
        session = self.make_session(repeat_every_s=300.0, fraction=0.3)
        session.run()
        times = sorted({entry.time for entry in self.fault_log(session)})
        assert len(times) >= 2

    def test_fault_models_rejected_for_squirrel_specs(self):
        with pytest.raises(ValueError, match="fault models only apply"):
            ScenarioSpec(
                name="bad",
                systems=("flower", "squirrel"),
                fault_model=ModelRef.of("correlated-locality"),
            )
        with pytest.raises(ValueError, match="churn models only apply"):
            ScenarioSpec(
                name="bad",
                systems=("flower", "squirrel"),
                churn_model=ModelRef.of("burst"),
            )

    def test_correlated_failures_scenario_degrades_locality_zero(self):
        """The library scenario visibly injures the system mid-run."""
        session = Session.from_name("correlated-failures", scale=0.2, seed=9)
        session.run()
        log = [
            entry
            for injector in session.last_injectors
            for entry in getattr(injector, "log", [])
            if entry.kind.startswith("correlated")
        ]
        assert log, "the scheduled outage never fired"


class TestGossipLossFaultModel:
    """The "gossip-loss" model: probabilistic gossip-message drop."""

    def make_spec(self, drop_probability):
        return dataclasses.replace(
            get_scenario("paper-default").scaled(TINY_SCALE),
            fault_model=ModelRef.of("gossip-loss", drop_probability=drop_probability),
        )

    def test_registered(self):
        assert "gossip-loss" in fault_model_names()

    def test_drop_probability_validated(self):
        with pytest.raises(ValueError, match="drop_probability"):
            build_fault_model(ModelRef.of("gossip-loss", drop_probability=-0.1))
        with pytest.raises(ValueError, match="drop_probability"):
            build_fault_model(ModelRef.of("gossip-loss", drop_probability=1.5))

    def test_zero_probability_is_byte_identical_to_none(self):
        baseline = run_scenario(get_scenario("paper-default").scaled(TINY_SCALE), seed=7)
        session = Session.from_spec(self.make_spec(0.0), seed=7)
        lossless = session.run()
        # The model attaches nothing, draws nothing, and changes nothing.
        assert session.last_injectors == []
        assert lossless.metrics_digest() == baseline.metrics_digest()

    def test_total_loss_suppresses_every_exchange(self):
        session = Session.from_spec(self.make_spec(1.0), seed=7)
        session.run()
        system = session.experiment.last_flower_system
        stats = system.delivery_stats
        assert "gossip" not in stats.delivered
        assert set(stats.blocked) == {"gossip"} and stats.blocked["gossip"] > 0
        assert stats.delivered["keepalive"] > 0  # other kinds pass untouched
        assert all(
            peer.gossip_initiated == 0 for peer in system._content_peers.values()
        )

    def test_partial_loss_drops_some_and_delivers_some(self):
        session = Session.from_spec(self.make_spec(0.5), seed=7)
        lossy = session.run()
        stats = session.experiment.last_flower_system.delivery_stats
        assert stats.blocked["gossip"] > 0
        assert stats.delivered["gossip"] > 0
        baseline = run_scenario(get_scenario("paper-default").scaled(TINY_SCALE), seed=7)
        assert lossy.metrics_digest() != baseline.metrics_digest()

    def test_filter_detaches_after_the_run(self):
        session = Session.from_spec(self.make_spec(0.5), seed=7)
        session.run()
        assert session.experiment.last_flower_system.reachability is None

    def test_runs_are_deterministic(self):
        first = run_scenario(self.make_spec(0.3), seed=11).metrics_digest()
        second = run_scenario(self.make_spec(0.3), seed=11).metrics_digest()
        assert first == second

    def test_double_attach_rejected(self):
        session = Session.from_spec(self.make_spec(0.5), seed=7)
        _, system = session.build_flower()
        (injector,) = session.attach_models(system)
        assert isinstance(injector, ReachabilityInjector)
        injector.start()
        (other,) = session.attach_models(system)
        with pytest.raises(RuntimeError, match="already attached"):
            other.start()
        injector.stop()
        assert system.reachability is None
