"""The `scenarios diff` digest-comparison tooling."""

import io
import json
import re

import pytest

from repro import cli
from repro.scenarios import diffing
from repro.scenarios.golden import differing_leaves


def _digest(hit_ratio=0.7, latency=150.0, queries=1000, scenario="paper-default"):
    return {
        "scenario": scenario,
        "seed": 42,
        "scale": 0.25,
        "systems": {
            "flower": {
                "metrics": {
                    "num_queries": queries,
                    "hit_ratio": hit_ratio,
                    "average_lookup_latency_ms": latency,
                    "fraction_local_overlay_hit": hit_ratio,
                },
                "phases": {
                    "steady": {"hit_ratio": hit_ratio},
                    "warmup": {"hit_ratio": hit_ratio / 2},
                },
            }
        },
    }


def _format(left, right, all_rows=False):
    return diffing.format_rows(differing_leaves(left, right, unchanged=all_rows))


class TestDiffDigests:
    def test_identical_digests_have_no_changes(self):
        assert _format(_digest(), _digest()) == "no differences"

    def test_exact_mode_flags_any_change(self):
        text = _format(_digest(hit_ratio=0.70), _digest(hit_ratio=0.700001))
        assert [line.split()[1] for line in text.splitlines()] == [
            "systems.flower.metrics.hit_ratio",
            "systems.flower.metrics.fraction_local_overlay_hit",
            "systems.flower.phases.steady.hit_ratio",
            "systems.flower.phases.warmup.hit_ratio",
        ]
        assert all(line.startswith("! ") for line in text.splitlines())

    def test_deltas_carry_values_and_relative_change(self):
        text = _format(_digest(latency=100.0), _digest(latency=110.0))
        assert text == (
            "! systems.flower.metrics.average_lookup_latency_ms  100.0 -> 110.0"
            "  delta +10 (+10.00%)"
        )

    def test_cross_scenario_context_is_reported_not_rejected(self):
        text = _format(_digest(), _digest(scenario="flash-crowd"))
        assert text == "! scenario  'paper-default' -> 'flash-crowd'"

    def test_a_vanished_metric_is_missing_with_no_delta(self):
        right = _digest()
        del right["systems"]["flower"]["metrics"]["fraction_local_overlay_hit"]
        assert _format(_digest(), right) == (
            "! systems.flower.metrics.fraction_local_overlay_hit  0.7 -> missing"
        )

    def test_a_zero_baseline_has_no_relative_delta(self):
        assert _format(_digest(queries=0), _digest(queries=5)) == (
            "! systems.flower.metrics.num_queries  0 -> 5  delta +5"
        )

    def test_format_lists_only_changes_by_default(self):
        text = _format(_digest(), _digest(hit_ratio=0.71))
        assert "hit_ratio" in text
        assert "num_queries" not in text
        full = _format(_digest(), _digest(hit_ratio=0.71), all_rows=True)
        assert "  systems.flower.metrics.num_queries" in full
        assert "! systems.flower.metrics.hit_ratio" in full


class TestDiffCli:
    def _write(self, path, digest):
        path.write_text(json.dumps(digest), encoding="utf-8")
        return str(path)

    def test_equal_digests_exit_zero(self, tmp_path):
        left = self._write(tmp_path / "a.json", _digest())
        right = self._write(tmp_path / "b.json", _digest())
        out = io.StringIO()
        assert cli.main(["scenarios", "diff", left, right], out=out) == 0
        assert out.getvalue() == "no differences\n"
        out = io.StringIO()
        assert cli.main(["scenarios", "diff", left, right, "--all-metrics"], out=out) == 0
        assert "hit_ratio" in out.getvalue()

    def test_any_change_exits_one(self, tmp_path):
        left = self._write(tmp_path / "a.json", _digest())
        right = self._write(tmp_path / "b.json", _digest(hit_ratio=0.700001))
        out = io.StringIO()
        assert cli.main(["scenarios", "diff", left, right], out=out) == 1
        assert "! systems.flower.metrics.hit_ratio" in out.getvalue()

    def test_exact_flag(self, tmp_path, capsys):
        # Exact is the only mode: a move in the sixth decimal is a row, and
        # the flag that used to ask for it is no longer an option.
        left = self._write(tmp_path / "a.json", _digest())
        right = self._write(tmp_path / "b.json", _digest(hit_ratio=0.700001))
        assert cli.main(["scenarios", "diff", left, right], out=io.StringIO()) == 1
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["scenarios", "diff", left, right, "--exact"], out=io.StringIO())
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --exact" in capsys.readouterr().err

    def test_missing_file_is_a_usage_error(self, tmp_path):
        left = self._write(tmp_path / "a.json", _digest())
        assert (
            cli.main(["scenarios", "diff", left, str(tmp_path / "nope.json")],
                     out=io.StringIO())
            == 2
        )

    def test_non_digest_json_rejected(self, tmp_path, capsys):
        left = self._write(tmp_path / "a.json", _digest())
        for document in ({"not": "a digest"}, {"systems": [1, 2]}, {"systems": {"flower": 1}}, [1]):
            bogus = self._write(tmp_path / "bogus.json", document)
            out = io.StringIO()
            assert cli.main(["scenarios", "diff", left, bogus], out=out) == 2
            assert out.getvalue() == ""
            assert "not a scenario metrics digest" in capsys.readouterr().err
        deep = tmp_path / "deep.json"
        deep.write_text('{"systems": {"a": ' + "[" * 100_000 + "]" * 100_000 + "}}")
        assert cli.main(["scenarios", "diff", left, str(deep)], out=io.StringIO()) == 2
        assert "nests deeper" in capsys.readouterr().err

    def test_a_string_metric_is_compared_by_equality(self, tmp_path):
        odd = _digest()
        odd["systems"]["flower"]["metrics"]["hit_ratio"] = "x"
        left = self._write(tmp_path / "a.json", _digest())
        right = self._write(tmp_path / "b.json", odd)
        out = io.StringIO()
        assert cli.main(["scenarios", "diff", left, right], out=out) == 1
        assert out.getvalue() == "! systems.flower.metrics.hit_ratio  0.7 -> 'x'\n"
        out = io.StringIO()
        assert cli.main(["scenarios", "diff", right, right], out=out) == 0

    def test_diff_of_two_real_runs(self, tmp_path):
        """End to end: run a scenario twice at different seeds and diff."""
        a, b = io.StringIO(), io.StringIO()
        assert cli.main(
            ["scenarios", "run", "paper-default", "--scale", "0.1", "--seed", "42"], out=a
        ) == 0
        assert cli.main(
            ["scenarios", "run", "paper-default", "--scale", "0.1", "--seed", "43"], out=b
        ) == 0
        left = self._write(tmp_path / "a.json", json.loads(a.getvalue()))
        right = self._write(tmp_path / "b.json", json.loads(b.getvalue()))
        out = io.StringIO()
        assert cli.main(["scenarios", "diff", left, right], out=out) == 1
        assert re.search(r"^! seed +42 -> 43  delta \+1 ", out.getvalue(), re.MULTILINE)
