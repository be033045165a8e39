"""Tests for the declarative scenario layer: spec, library, runner, CLI verbs.

Every library scenario is exercised at a strongly reduced scale so the whole
module stays fast while still running the full pipeline (topology → workload
→ systems → metrics) end to end, and every scenario is checked to be
byte-for-byte deterministic for a fixed seed.
"""

import dataclasses
import io
import json

import pytest

from repro import cli
from repro.experiments.driver import ExperimentSetup
from repro.scenarios import (
    ChurnProfile,
    ScenarioSpec,
    get_scenario,
    iter_scenarios,
    register_scenario,
    run_scenario,
    scenario_names,
    unregister_scenario,
)
from repro.session import Session

#: scale used for the per-scenario smoke/determinism runs (keep them fast)
TINY_SCALE = 0.1

EXPECTED_LIBRARY = {
    "paper-default",
    "flash-crowd",
    "heavy-churn",
    "cold-start",
    "squirrel-head-to-head",
    "large-catalog",
    "multi-locality",
    "gossip-starved",
    # scenario-program workloads (phased / faulted / cache-bounded)
    "adversarial-hotspots",
    "diurnal-cycle",
    "correlated-failures",
    "cache-bounded-peers",
}


class TestScenarioSpec:
    def test_invalid_system_rejected(self):
        with pytest.raises(ValueError, match="unknown system"):
            ScenarioSpec(name="bad", systems=("flower", "akamai"))

    def test_duplicate_systems_rejected(self):
        with pytest.raises(ValueError, match="must not repeat"):
            ScenarioSpec(name="bad", systems=("flower", "flower"))

    def test_invalid_population_rejected_eagerly(self):
        # Validation of the composed configs happens at spec construction.
        with pytest.raises(ValueError):
            ScenarioSpec(name="bad", active_websites=50, num_websites=10)

    def test_negative_churn_rejected(self):
        with pytest.raises(ValueError):
            ChurnProfile(content_failures_per_hour=-1.0)

    def test_churn_with_squirrel_rejected(self):
        # Squirrel has no churn injection; a churned head-to-head would be
        # an unfair comparison presented as same-conditions.
        with pytest.raises(ValueError, match="churn profiles only apply"):
            ScenarioSpec(
                name="bad",
                systems=("flower", "squirrel"),
                churn=ChurnProfile(content_failures_per_hour=1.0),
            )

    def test_to_setup_mirrors_the_spec(self):
        spec = get_scenario("paper-default")
        setup = spec.to_setup()
        assert isinstance(setup, ExperimentSetup)
        assert setup.flower.num_websites == spec.num_websites
        assert setup.flower.simulation_duration_s == spec.duration_s
        assert setup.flower.gossip.gossip_period_s == spec.gossip_period_s
        assert setup.topology.num_hosts == spec.num_hosts
        assert setup.workload.query_rate_per_s == spec.query_rate_per_s
        assert setup.seed == spec.seed
        assert setup.squirrel.metrics_window_s == setup.flower.metrics_window_s

    def test_to_setup_seed_override(self):
        setup = get_scenario("paper-default").to_setup(seed=9)
        assert setup.seed == 9

    def test_scaled_preserves_ratios_and_validity(self):
        for spec in iter_scenarios():
            small = spec.scaled(TINY_SCALE)
            assert small.num_hosts < spec.num_hosts
            assert small.duration_s <= spec.duration_s
            assert small.active_websites == spec.active_websites
            assert small.query_rate_per_s == spec.query_rate_per_s
            assert small.gossip_period_s == spec.gossip_period_s
            small.to_setup()  # must still validate

    def test_scaled_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            get_scenario("paper-default").scaled(0.0)

    def test_locality_bits_cover_the_localities(self):
        spec = get_scenario("multi-locality")
        assert 2 ** spec.locality_bits() >= spec.num_localities

    def test_to_dict_is_json_serialisable(self):
        payload = json.dumps(get_scenario("multi-locality").to_dict())
        assert "multi-locality" in payload


class TestLibrary:
    def test_expected_scenarios_present(self):
        assert EXPECTED_LIBRARY <= set(scenario_names())
        assert len(scenario_names()) >= 8

    def test_get_scenario_unknown_name(self):
        with pytest.raises(KeyError, match="known scenarios"):
            get_scenario("does-not-exist")

    def test_register_and_unregister(self):
        spec = dataclasses.replace(get_scenario("paper-default"), name="tmp-test-scenario")
        try:
            register_scenario(spec)
            assert get_scenario("tmp-test-scenario") is spec
            with pytest.raises(ValueError, match="already registered"):
                register_scenario(spec)
        finally:
            unregister_scenario("tmp-test-scenario")
        assert "tmp-test-scenario" not in scenario_names()

    def test_only_head_to_head_runs_squirrel(self):
        assert get_scenario("squirrel-head-to-head").systems == ("flower", "squirrel")
        assert get_scenario("heavy-churn").churn.is_enabled


@pytest.mark.parametrize("name", sorted(EXPECTED_LIBRARY))
def test_every_scenario_runs_and_is_deterministic(name):
    """Each library scenario runs at reduced scale; two runs agree exactly."""
    spec = get_scenario(name).scaled(TINY_SCALE)
    session = Session.from_spec(spec, seed=7)
    first = session.run()
    second = run_scenario(spec, seed=7)

    assert first.to_dict() == second.to_dict()  # byte-for-byte determinism

    for system in spec.systems:
        metrics = first[system].metrics
        assert metrics["num_queries"] > 50
        assert 0.0 <= metrics["hit_ratio"] <= 1.0
        assert metrics["average_lookup_latency_ms"] >= 0.0
        assert set(first[system].phases) == {"warmup", "steady"}
        assert first[system].series["hit_ratio_cumulative"]

    if spec.churn.is_enabled:
        # Churn scenarios must actually injure the system: dead content
        # peers and/or directory replacements prove the injector ran.
        flower_system = session.experiment.last_flower_system
        assert flower_system is not None
        dead_peers = sum(
            1 for peer in flower_system._content_peers.values() if not peer.alive  # noqa: SLF001
        )
        assert dead_peers + flower_system.directory_replacements > 0


def test_different_seeds_produce_different_results():
    spec = get_scenario("paper-default").scaled(TINY_SCALE)
    first = run_scenario(spec, seed=1)
    second = run_scenario(spec, seed=2)
    assert first.to_dict() != second.to_dict()


def test_digest_is_seed_and_name_stamped():
    spec = get_scenario("cold-start").scaled(TINY_SCALE)
    digest = run_scenario(spec, seed=5).metrics_digest()
    assert digest["scenario"] == "cold-start"
    assert digest["seed"] == 5
    assert "series" not in digest["systems"]["flower"]


class TestScenarioCli:
    def run_cli(self, args) -> str:
        buffer = io.StringIO()
        assert cli.main(args, out=buffer) == 0
        return buffer.getvalue()

    def test_scenarios_list_names_every_scenario(self):
        output = self.run_cli(["scenarios", "list"])
        for name in EXPECTED_LIBRARY:
            assert name in output

    def test_scenarios_run_prints_metrics_json(self):
        output = self.run_cli(
            ["scenarios", "run", "cold-start", "--seed", "3", "--scale", str(TINY_SCALE)]
        )
        digest = json.loads(output)
        assert digest["scenario"] == "cold-start"
        assert digest["seed"] == 3
        assert "hit_ratio" in digest["systems"]["flower"]["metrics"]

    def test_scenarios_run_is_deterministic_across_invocations(self):
        args = ["scenarios", "run", "cold-start", "--seed", "42", "--scale", str(TINY_SCALE)]
        assert self.run_cli(args) == self.run_cli(args)

    def test_scenarios_run_table_output(self):
        output = self.run_cli(
            ["scenarios", "run", "cold-start", "--scale", str(TINY_SCALE), "--table"]
        )
        assert "cold-start — flower" in output
        assert "hit_ratio" in output

    def test_golden_flags_reject_overridden_seed_and_scale(self, capsys):
        code = cli.main(
            ["scenarios", "run", "cold-start", "--check-golden", "--seed", "7"],
            out=io.StringIO(),
        )
        assert code == 2
        assert "pinned" in capsys.readouterr().err

    def test_unknown_scenario_is_a_clean_error(self, capsys):
        code = cli.main(["scenarios", "run", "no-such-thing"], out=io.StringIO())
        assert code == 2
        assert "known scenarios" in capsys.readouterr().err

    def test_adhoc_setup_flows_through_the_spec_layer(self):
        args = cli.build_parser().parse_args(
            ["run", "--websites", "6", "--active-websites", "2", "--seed", "5"]
        )
        spec = cli.spec_from_args(args)
        assert spec.to_setup().flower.num_websites == 6
        assert spec.seed == 5


class TestScenarioTiers:
    def test_default_tier_is_standard(self):
        assert get_scenario("paper-default").tier == "standard"

    def test_full_scale_scenario_is_registered_in_the_paper_tier(self):
        spec = get_scenario("paper-default-full-scale")
        assert spec.tier == "paper-scale"
        assert spec.num_hosts == 5000
        assert spec.duration_s == 24 * 3600.0
        assert spec.query_rate_per_s == 6.0
        assert spec.num_websites == 100
        assert spec.queue_backend == "calendar"
        assert spec.compact_metrics

    def test_tier_filtering(self):
        standard = scenario_names(tier="standard")
        paper = scenario_names(tier="paper-scale")
        assert "paper-default" in standard
        assert "paper-default-full-scale" not in standard
        assert "paper-default-full-scale" in paper
        assert sorted(standard + paper) == scenario_names()

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown tier"):
            scenario_names(tier="galactic")
        with pytest.raises(ValueError, match="unknown tier"):
            dataclasses.replace(get_scenario("paper-default"), tier="galactic")

    def test_unknown_queue_backend_rejected(self):
        with pytest.raises(ValueError, match="queue backend"):
            dataclasses.replace(get_scenario("paper-default"), queue_backend="btree")

    def test_run_all_defaults_exclude_the_paper_tier(self):
        from repro.scenarios.parallel import resolve_names

        names = resolve_names(None)
        assert "paper-default-full-scale" not in names
        assert "paper-default" in names
        # Explicit naming still works.
        assert resolve_names(["paper-default-full-scale"]) == ["paper-default-full-scale"]


class TestBackendEquivalence:
    def test_calendar_and_compact_modes_reproduce_the_heap_digest(self):
        """The fast-path run modes are byte-identical, not merely close."""
        spec = get_scenario("paper-default").scaled(TINY_SCALE)
        baseline = Session.from_spec(spec, seed=11).run().metrics_digest()
        fast = Session.from_spec(
            dataclasses.replace(spec, queue_backend="calendar", compact_metrics=True),
            seed=11,
        ).run().metrics_digest()
        assert fast == baseline
