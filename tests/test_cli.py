"""Tests for the command-line interface."""

import io
from pathlib import Path

import pytest

from repro import cli

DATA = Path(__file__).parent / "data"


def run_cli(args) -> str:
    """Run the CLI with a tiny scale and capture its output."""
    buffer = io.StringIO()
    exit_code = cli.main(args, out=buffer)
    assert exit_code == 0
    return buffer.getvalue()


TINY = [
    "--duration-hours", "0.25",
    "--query-rate", "1.0",
    "--websites", "6",
    "--active-websites", "2",
    "--objects", "30",
    "--localities", "3",
    "--overlay-size", "10",
    "--hosts", "200",
    "--seed", "5",
]


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["frobnicate"])

    def test_help_lists_the_analyze_verb(self):
        assert "analyze" in cli.build_parser().format_help()

    def test_analyze_defaults(self):
        args = cli.build_parser().parse_args(["analyze"])
        assert args.command == "analyze"
        assert args.format == "text"
        assert not args.changed
        assert not args.list_rules

    def test_scale_options_have_defaults(self):
        args = cli.build_parser().parse_args(["run"])
        assert args.duration_hours == 3.0
        assert args.localities == 3
        assert not args.paper_scale

    def test_spec_from_args_laptop_scale(self):
        args = cli.build_parser().parse_args(["run", *TINY])
        spec = cli.spec_from_args(args)
        assert spec.num_websites == 6
        assert spec.duration_s == pytest.approx(0.25 * 3600)
        assert spec.query_rate_per_s == 1.0
        assert spec.seed == 5

    def test_spec_from_args_paper_scale(self):
        args = cli.build_parser().parse_args(["run", "--paper-scale", "--seed", "9"])
        spec = cli.spec_from_args(args)
        assert spec.name == "paper-default-full-scale"
        assert spec.num_websites == 100
        assert spec.seed == 9


class TestCommands:
    def test_run_prints_headline_metrics(self):
        output = run_cli(["run", *TINY])
        assert "hit ratio" in output
        assert "avg lookup latency (ms)" in output
        assert "background traffic (bps/peer)" in output

    def test_compare_prints_figures(self):
        output = run_cli(["compare", *TINY])
        assert "Figure 6" in output
        assert "Figure 7" in output
        assert "Figure 8" in output
        assert "Squirrel" in output

    def test_compare_runs_each_system_once_on_one_environment(self, monkeypatch):
        """Figures 6-8 all come from one session of a two-system spec; the
        output is what the two-environment, four-run implementation printed."""
        from repro.experiments.driver import ExperimentRunner
        from repro.session import Session

        environments, systems = [], []
        build, run_system = ExperimentRunner.__init__, Session.run_system
        monkeypatch.setattr(
            ExperimentRunner, "__init__",
            lambda self, setup: environments.append(setup) or build(self, setup),
        )
        monkeypatch.setattr(
            Session, "run_system",
            lambda self, system: systems.append(system) or run_system(self, system),
        )
        output = run_cli(["compare", *TINY])
        assert len(environments) == 1 and systems == ["flower", "squirrel"]
        assert output == (DATA / "compare_tiny_seed5.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("verb", ["run", "churn"])
    def test_experiment_verbs_print_the_pinned_bytes(self, verb):
        """What each verb printed before it ran through a Session, byte for
        byte (``compare``'s pin is checked above)."""
        pinned = DATA / f"{verb}_tiny_seed5.txt"
        assert run_cli([verb, *TINY]) == pinned.read_text(encoding="utf-8")

    @pytest.mark.parametrize("verb", ["run", "compare", "churn"])
    @pytest.mark.parametrize("options, message", [
        (["--duration-hours", "0"], "duration_s must be positive"),
        (["--websites", "1", "--active-websites", "2"], "active_websites must be in"),
    ], ids=["zero-duration", "more-active-than-websites"])
    def test_an_out_of_range_option_is_one_usage_line(self, capsys, verb, options, message):
        out = io.StringIO()
        assert cli.main([verb, *options], out=out) == 2
        assert out.getvalue() == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"error: {message}")

    def test_sweep_prints_all_three_tables(self):
        """Table 2(a-c) come from the sweep registry, one `sweep run` each."""
        for name, axis in (
            ("table2a-gossip-length", "Lgossip"),
            ("table2b-gossip-period", "Tgossip(s)"),
            ("table2c-view-size", "Vgossip"),
        ):
            output = run_cli(["sweep", "run", name, "--scale", "0.1", "--table"])
            assert f"Sweep: {name}" in output
            assert axis in output and "hit_ratio" in output

    def test_churn_prints_ablation(self):
        output = run_cli(["churn", *TINY])
        assert "Churn ablation" in output
        assert "with churn" in output


class TestInfeasibleSeed:
    """A (spec, seed) whose topology cannot host the directory peers."""

    ARGV = ["scenarios", "run", "multi-locality", "--seed", "7", "--scale", "0.25"]

    def test_one_line_error_and_exit_2(self, capsys):
        out = io.StringIO()
        assert cli.main(self.ARGV, out=out) == 2
        assert out.getvalue() == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: infeasible scenario: locality 5 has 4 hosts but 5 ")

    @pytest.mark.parametrize("shard_jobs", ["1", "2"], ids=["inline", "pooled"])
    def test_sharded_run_prints_the_same_one_line(self, capsys, shard_jobs):
        """The shard workers hit the shortfall, not the parent; the typed
        error crosses the pool and the CLI reports it as for shards=1."""
        out = io.StringIO()
        argv = [*self.ARGV, "--shards", "2", "--shard-jobs", shard_jobs]
        assert cli.main(argv, out=out) == 2
        assert out.getvalue() == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: infeasible scenario: locality 5 has 4 hosts but 5 ")

    def test_the_typed_error_names_the_shortfall(self):
        from repro.core.system import InfeasibleScenarioError
        from repro.scenarios.library import get_scenario
        from repro.session import Session

        session = Session.from_spec(get_scenario("multi-locality").scaled(0.25), seed=7)
        # Both users of the placement helper fail alike: the trace builder ...
        with pytest.raises(InfeasibleScenarioError) as trace_error:
            session.resolved_trace()
        # ... and bootstrap (a RuntimeError, as the seed-search of
        # benchmarks/e2e expects).
        with pytest.raises(RuntimeError) as bootstrap_error:
            session.build_flower()
        assert str(trace_error.value) == str(bootstrap_error.value)
        error = trace_error.value
        assert (error.locality, error.hosts_available, error.directories_required) == (5, 4, 5)

    #: the full-scale seeds documented next to the spec in scenarios/library.py
    #: and in docs/scenarios.md, with the shortfall each one hits
    DOCUMENTED = {7: (5, 18, 20), 68: (4, 16, 20), 83: (5, 14, 20)}

    @staticmethod
    def _place_directories(seed):
        from repro.core.system import directory_hosts
        from repro.scenarios.library import get_scenario
        from repro.session import Session

        session = Session.from_spec(get_scenario("multi-locality"), seed=seed)
        return directory_hosts(
            session.experiment.topology,
            len(session.experiment.catalog),
            session.setup.flower.num_localities,
        )

    @pytest.mark.parametrize("seed", sorted(DOCUMENTED))
    def test_documented_infeasible_seed_and_the_harness_rule(self, seed):
        from repro.core.system import InfeasibleScenarioError

        with pytest.raises(InfeasibleScenarioError) as raised:
            self._place_directories(seed)
        error = raised.value
        assert (error.locality, error.hosts_available, error.directories_required) == (
            self.DOCUMENTED[seed]
        )
        # benchmarks/e2e maps such a seed to the first feasible seed + 1000 * k.
        assert len(self._place_directories(seed + 1000)) == 6

    def test_no_other_seed_below_100_is_infeasible(self):
        from repro.core.system import InfeasibleScenarioError

        infeasible = set()
        for seed in range(100):
            try:
                self._place_directories(seed)
            except InfeasibleScenarioError:
                infeasible.add(seed)
        assert infeasible == set(self.DOCUMENTED)


class TestScenariosRunShards:
    """A placement that cannot be made is refused before anything is built."""

    def test_an_inseparable_spec_is_refused_with_the_golden_skip_reason(
        self, capsys, monkeypatch
    ):
        from repro.core.sharding import inseparable_reason
        from repro.experiments.driver import ExperimentRunner
        from repro.scenarios import golden
        from repro.scenarios.library import get_scenario

        monkeypatch.setattr(ExperimentRunner, "resolved_trace", lambda self: pytest.fail("built"))
        out = io.StringIO()
        assert cli.main(["scenarios", "run", "heavy-churn", "--shards", "2"], out=out) == 2
        assert out.getvalue() == ""
        reason = inseparable_reason(get_scenario("heavy-churn"))
        assert capsys.readouterr().err == f"error: {reason}\n"
        skipped = io.StringIO()
        monkeypatch.setattr(golden, "check_or_update", lambda names, *args, **kwargs: 0)
        assert golden.main(["heavy-churn", "--shards", "2"], out=skipped) == 0
        assert skipped.getvalue() == f"skip heavy-churn: {reason}\n"

    def test_zero_shard_jobs_is_refused_before_any_simulation(self, capsys, monkeypatch):
        from repro.experiments.driver import ExperimentRunner

        monkeypatch.setattr(ExperimentRunner, "resolved_trace", lambda self: pytest.fail("built"))
        argv = ["scenarios", "run", "paper-default", "--shards", "2", "--shard-jobs", "0"]
        out = io.StringIO()
        assert cli.main(argv, out=out) == 2
        assert out.getvalue() == ""
        assert capsys.readouterr().err == "error: --shard-jobs must be >= 1\n"


class TestNonFiniteScale:
    @pytest.mark.parametrize("argv", [
        ["scenarios", "run", "paper-default", "--scale", "nan"],
        ["scenarios", "run", "--all", "--scale", "nan"],
        ["scenarios", "show", "paper-default", "--scale", "inf"],
        ["perf", "--scale", "nan", "--output", "-"],
        ["sweep", "run", "table2a-gossip-length", "--scale", "inf"],
        ["sweep", "show", "table2a-gossip-length", "--scale", "nan"],
    ])
    def test_is_one_error_line_and_exit_2(self, argv, capsys):
        assert cli.main(argv, out=io.StringIO()) == 2
        assert capsys.readouterr().err == "error: --scale must be positive and finite\n"

    def test_sweep_golden_module_too(self, capsys):
        from repro.sweeps import golden

        assert golden.main(["--scale", "nan", "table2a-gossip-length"]) == 2
        assert capsys.readouterr().err == "error: --scale must be positive and finite\n"


class TestScenariosShow:
    def test_show_prints_spec_program_and_models(self):
        output = run_cli(["scenarios", "show", "adversarial-hotspots"])
        assert "Scenario: adversarial-hotspots" in output
        assert "Workload program" in output
        assert "rotation" in output
        assert "Churn model: poisson" in output
        assert "Fault model: none" in output

    def test_show_without_a_program_says_so(self):
        output = run_cli(["scenarios", "show", "paper-default"])
        assert "single stationary phase" in output

    def test_show_names_the_fault_model(self):
        output = run_cli(["scenarios", "show", "correlated-failures"])
        assert "correlated-locality" in output
        assert "at_fraction" in output

    def test_show_json_is_machine_readable(self):
        import json as _json

        payload = _json.loads(run_cli(["scenarios", "show", "diurnal-cycle", "--json"]))
        assert payload["name"] == "diurnal-cycle"
        assert len(payload["compiled_program"]) == 4
        assert payload["compiled_program"][-1]["end_s"] == payload["duration_s"]
        assert payload["effective"]["warmup_s"] == 0.5 * payload["duration_s"]

    def test_show_scale_rescales_the_resolved_spec(self):
        import json as _json

        payload = _json.loads(
            run_cli(["scenarios", "show", "adversarial-hotspots", "--json", "--scale", "0.25"])
        )
        assert payload["duration_s"] == 1800.0
        assert payload["compiled_program"][-1]["end_s"] == 1800.0

    def test_show_unknown_scenario_is_a_clean_error(self, capsys):
        code = cli.main(["scenarios", "show", "no-such-thing"], out=io.StringIO())
        assert code == 2
        assert "known scenarios" in capsys.readouterr().err


class TestSweepVerbs:
    """The `sweep list|show|run` verbs."""

    def test_list_prints_the_registry(self):
        output = run_cli(["sweep", "list"])
        assert "Sweep registry" in output
        assert "table2a-gossip-length" in output
        assert "fig6-hit-ratio-comparison" in output

    def test_show_prints_axes_and_compiled_grid(self):
        output = run_cli(["sweep", "show", "table2b-gossip-period"])
        assert "Sweep: table2b-gossip-period" in output
        assert "Tgossip(s)" in output
        assert "Compiled grid" in output
        assert "Tgossip(s)=60" in output

    def test_show_unknown_sweep_is_a_clean_error(self, capsys):
        code = cli.main(["sweep", "show", "no-such-sweep"], out=io.StringIO())
        assert code == 2
        assert "known sweeps" in capsys.readouterr().err

    def test_run_emits_the_json_digest(self):
        import json as _json

        payload = _json.loads(
            run_cli(["sweep", "run", "table2a-gossip-length", "--scale", "0.1"])
        )
        assert payload["sweep"] == "table2a-gossip-length"
        assert len(payload["cells"]) == 3
        assert payload["cells"][0]["assignments"] == {"gossip_length": 5}

    def test_run_table_output(self):
        output = run_cli(
            ["sweep", "run", "table2a-gossip-length", "--scale", "0.1", "--table"]
        )
        assert "Sweep: table2a-gossip-length" in output
        assert "Lgossip" in output

    def test_run_jobs_matches_sequential(self):
        sequential = run_cli(
            ["sweep", "run", "table2a-gossip-length", "--scale", "0.1"]
        )
        parallel = run_cli(
            ["sweep", "run", "table2a-gossip-length", "--scale", "0.1", "--jobs", "2"]
        )
        assert sequential == parallel

    def test_run_exports_artifacts(self, tmp_path):
        output = run_cli(
            ["sweep", "run", "ablation-push-threshold", "--scale", "0.1",
             "--out", str(tmp_path)]
        )
        assert "wrote" in output
        for suffix in ("csv", "json", "md"):
            assert (tmp_path / f"ablation-push-threshold.{suffix}").exists()

    def test_run_unknown_sweep_is_a_clean_error(self, capsys):
        code = cli.main(["sweep", "run", "no-such-sweep"], out=io.StringIO())
        assert code == 2
        assert "known sweeps" in capsys.readouterr().err

    def test_run_rejects_bad_jobs_and_scale(self, capsys):
        assert cli.main(
            ["sweep", "run", "table2a-gossip-length", "--jobs", "0"],
            out=io.StringIO(),
        ) == 2
        assert cli.main(
            ["sweep", "run", "table2a-gossip-length", "--scale", "-1"],
            out=io.StringIO(),
        ) == 2
        capsys.readouterr()

    def test_verbless_sweep_exits_2_with_the_list_hint(self, capsys):
        out = io.StringIO()
        assert cli.main(["sweep"], out=out) == 2
        assert out.getvalue() == ""
        assert "`repro sweep list`" in capsys.readouterr().err

    def test_legacy_flags_before_a_verb_are_rejected_not_dropped(self, capsys):
        for argv in (
            ["sweep", "--seed", "7", "run", "table2a-gossip-length"],
            ["sweep", "--paper-scale", "list"],
            ["sweep", *TINY],
        ):
            with pytest.raises(SystemExit) as exit_info:
                cli.main(argv, out=io.StringIO())
            assert exit_info.value.code == 2
        capsys.readouterr()
