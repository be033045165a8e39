"""Golden-metrics regression suite.

Every library scenario is re-run at the pinned golden scale/seed and its
rounded metrics digest is compared against the committed file under
``tests/goldens/`` with per-metric tolerances.  A pure refactor of the hot
path (core/system.py, sim/engine.py, overlay routing, workload generation)
must keep these green; an intentional behaviour change is recorded by
running ``make goldens`` (``python -m repro.scenarios.golden --update``) and
committing the diff.
"""

import io
import json
from pathlib import Path

import pytest

from repro.scenarios import golden
from repro.scenarios.library import scenario_names

GOLDEN_DIR = Path(__file__).parent / "goldens"


def test_every_scenario_has_a_committed_golden():
    committed = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert set(scenario_names()) <= committed, (
        "missing goldens; run `python -m repro.scenarios.golden --update`"
    )


def test_goldens_do_not_outlive_the_library():
    committed = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    stale = committed - set(scenario_names())
    assert not stale, f"goldens without a library scenario: {sorted(stale)}"


@pytest.mark.parametrize("name", sorted(scenario_names(tier="standard")))
def test_scenario_matches_committed_golden(name):
    # Standard tier only: paper-scale goldens take minutes per scenario and
    # are verified by the nightly workflow (`... golden --tier paper-scale`).
    mismatches = golden.verify_golden(name, GOLDEN_DIR)
    assert not mismatches, "golden drift for {}:\n{}".format(name, "\n".join(mismatches))


def test_paper_scale_tier_goldens_are_pinned_at_full_scale():
    for name in scenario_names(tier="paper-scale"):
        assert golden.golden_scale_for(name) == 1.0
        committed = golden.load_golden(name, GOLDEN_DIR)
        assert committed["scale"] == 1.0
        assert committed["seed"] == golden.GOLDEN_SEED


# -- unit tests of the comparison machinery ---------------------------------


def _digest(hit_ratio=0.7, latency=150.0, queries=1000):
    return {
        "scenario": "paper-default",
        "seed": 42,
        "scale": golden.GOLDEN_SCALE,
        "systems": {
            "flower": {
                "metrics": {
                    "num_queries": queries,
                    "hit_ratio": hit_ratio,
                    "average_lookup_latency_ms": latency,
                },
                "phases": {"steady": {"hit_ratio": hit_ratio}},
            }
        },
    }


class TestCompareDigests:
    def test_identical_digests_match(self):
        assert golden.compare_digests(_digest(), _digest()) == []

    def test_within_tolerance_passes(self):
        # hit_ratio tolerance is ±0.02 absolute; latency ±5% relative.
        assert golden.compare_digests(
            _digest(hit_ratio=0.700, latency=150.0),
            _digest(hit_ratio=0.715, latency=155.0),
        ) == []

    def test_out_of_tolerance_fails_with_metric_name(self):
        mismatches = golden.compare_digests(_digest(hit_ratio=0.70), _digest(hit_ratio=0.60))
        assert any("hit_ratio" in m for m in mismatches)

    def test_num_queries_is_exact(self):
        mismatches = golden.compare_digests(_digest(queries=1000), _digest(queries=1001))
        assert any("num_queries" in m for m in mismatches)

    def test_missing_system_reported(self):
        actual = _digest()
        actual["systems"] = {}
        mismatches = golden.compare_digests(_digest(), actual)
        assert any("missing" in m for m in mismatches)

    def test_vanished_rare_fraction_compares_as_zero(self):
        # An outcome fraction only appears when observed; a tiny fraction
        # disappearing entirely must be judged by tolerance, not "missing".
        expected = _digest()
        expected["systems"]["flower"]["metrics"]["fraction_remote_overlay_hit"] = 0.0102
        assert golden.compare_digests(expected, _digest()) == []
        expected["systems"]["flower"]["metrics"]["fraction_remote_overlay_hit"] = 0.05
        mismatches = golden.compare_digests(expected, _digest())
        assert any("fraction_remote_overlay_hit" in m for m in mismatches)

    def test_missing_metric_reported(self):
        actual = _digest()
        del actual["systems"]["flower"]["metrics"]["hit_ratio"]
        mismatches = golden.compare_digests(_digest(), actual)
        assert any("hit_ratio" in m and "missing" in m for m in mismatches)

    def test_seed_and_scale_are_pinned(self):
        actual = _digest()
        actual["seed"] = 43
        assert golden.compare_digests(_digest(), actual)

    def test_tolerance_band(self):
        tolerance = golden.Tolerance(relative=0.1, absolute=1.0)
        assert tolerance.allows(100.0, 109.0)
        assert not tolerance.allows(100.0, 112.0)
        assert golden.EXACT.allows(5.0, 5.0)
        assert not golden.EXACT.allows(5.0, 5.0001)


class TestGoldenWorkflow:
    def test_load_golden_missing_file_is_actionable(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="--update"):
            golden.load_golden("paper-default", tmp_path)

    def test_update_then_verify_roundtrip(self, tmp_path):
        # Use the committed digest as the "fresh run" to avoid a re-simulation:
        # writing and re-reading must be lossless.
        committed = golden.load_golden("cold-start", GOLDEN_DIR)
        path = tmp_path / "cold-start.json"
        path.write_text(json.dumps(committed, indent=2, sort_keys=True) + "\n")
        assert golden.compare_digests(golden.load_golden("cold-start", tmp_path), committed) == []

    def test_main_reports_ok_for_committed_goldens(self):
        buffer = io.StringIO()
        code = golden.main(["cold-start", "--golden-dir", str(GOLDEN_DIR)], out=buffer)
        assert code == 0
        assert "ok   cold-start" in buffer.getvalue()

    def test_main_fails_on_missing_golden(self, tmp_path):
        buffer = io.StringIO()
        code = golden.main(["cold-start", "--golden-dir", str(tmp_path)], out=buffer)
        assert code == 1
        assert "FAIL cold-start" in buffer.getvalue()

    def test_main_with_shards_skips_inseparable_scenarios_and_checks_the_rest(self):
        buffer = io.StringIO()
        code = golden.main(
            ["cascading-directory-failures", "cold-start", "--shards", "2",
             "--golden-dir", str(GOLDEN_DIR)],
            out=buffer,
        )
        assert code == 0
        lines = buffer.getvalue().splitlines()
        assert lines[0].startswith("skip cascading-directory-failures: ")
        assert "not website-separable" in lines[0]
        assert lines[1:] == ["ok   cold-start"]

    def test_main_update_writes_files(self, tmp_path):
        buffer = io.StringIO()
        code = golden.main(
            ["cold-start", "--update", "--golden-dir", str(tmp_path)], out=buffer
        )
        assert code == 0
        digest = json.loads((tmp_path / "cold-start.json").read_text())
        assert digest["scenario"] == "cold-start"
        assert digest["seed"] == golden.GOLDEN_SEED
        assert digest["scale"] == golden.GOLDEN_SCALE
