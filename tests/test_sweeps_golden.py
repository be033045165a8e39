"""Sweep-golden regression suite.

Every registered sweep re-runs its whole grid at the pinned golden
scale/seed and the digest is compared against the committed file under
``tests/goldens/sweeps/`` — exactly, leaf by leaf: structure (axes,
assignments, seeds), metrics and each cell's SHA-256 ``digest`` alike.  A
hot-path refactor must keep these green
across entire parameter families; an intentional change is recorded with
``make goldens-sweeps`` and committed.
"""

import copy
import io
import json
from pathlib import Path

import pytest

from repro.scenarios.golden import compare_digests
from repro.sweeps import golden as sweep_golden
from repro.sweeps.library import sweep_names

GOLDEN_DIR = Path(__file__).parent / "goldens" / "sweeps"


def test_every_sweep_has_a_committed_golden():
    committed = {path.stem for path in GOLDEN_DIR.glob("*.json")}
    assert set(sweep_names()) <= committed, (
        "missing sweep goldens; run `python -m repro.sweeps.golden --update`"
    )


def test_goldens_do_not_outlive_the_registry():
    # Non-default-scale goldens are named "<sweep>@<scale>x.json"; they pin
    # the same registered sweep at a different scale (the nightly tier).
    committed = {path.stem.split("@")[0] for path in GOLDEN_DIR.glob("*.json")}
    stale = committed - set(sweep_names())
    assert not stale, f"sweep goldens without a registered sweep: {sorted(stale)}"


@pytest.mark.parametrize("name", sorted(sweep_names()))
def test_sweep_matches_committed_golden(name):
    mismatches = sweep_golden.verify_sweep_golden(name, GOLDEN_DIR)
    assert not mismatches, "sweep-golden drift for {}:\n{}".format(
        name, "\n".join(mismatches)
    )


def test_goldens_are_pinned_to_golden_scale_and_seed():
    for name in sweep_names():
        committed = sweep_golden.load_sweep_golden(name, GOLDEN_DIR)
        assert committed["scale"] == sweep_golden.SWEEP_GOLDEN_SCALE
        assert committed["base_seed"] == 42


def test_paper_scale_sweep_golden_is_committed_and_pinned():
    """The nightly tier re-runs Table 2a at scale 1.0; pin its golden here.

    The full-grid verification happens in the nightly workflow (minutes);
    this tier-1 test only asserts the committed file exists, targets the
    registered sweep, and is pinned to the genuine scale/seed — so the
    golden cannot silently vanish or drift structurally.
    """
    committed = sweep_golden.load_sweep_golden(
        "table2a-gossip-length", GOLDEN_DIR, scale=1.0
    )
    assert committed["sweep"] == "table2a-gossip-length"
    assert committed["scale"] == 1.0
    assert committed["base_seed"] == 42
    # The grid shape must match the registered sweep (same axis values).
    default_scale = sweep_golden.load_sweep_golden("table2a-gossip-length", GOLDEN_DIR)
    assert [axis["values"] for axis in committed["axes"]] == [
        axis["values"] for axis in default_scale["axes"]
    ]
    assert len(committed["cells"]) == len(default_scale["cells"])


# -- unit tests of the comparison machinery ----------------------------------


def _digest():
    return {
        "sweep": "tiny",
        "base": "paper-default",
        "base_seed": 42,
        "scale": 0.25,
        "seed_policy": "shared",
        "axes": [{"label": "L", "fields": ["gossip_length"], "values": [[5]],
                  "display": ["5"]}],
        "cells": [
            {
                "coordinates": [0],
                "labels": [["L", "5"]],
                "assignments": {"gossip_length": 5},
                "seed": 42,
                "digest": "abc",
                "systems": {
                    "flower": {
                        "metrics": {"num_queries": 1000, "hit_ratio": 0.7},
                        "phases": {"steady": {"hit_ratio": 0.8}},
                    }
                },
            }
        ],
    }


class TestCompareSweepDigests:
    def test_identical_digests_match(self):
        assert compare_digests(_digest(), _digest()) == []

    def test_cell_structure_is_exact(self):
        actual = _digest()
        actual["cells"][0]["assignments"] = {"gossip_length": 10}
        assert any(
            "assignments" in m
            for m in compare_digests(_digest(), actual)
        )
        actual = _digest()
        actual["cells"][0]["seed"] = 43
        assert any(
            "seed" in m for m in compare_digests(_digest(), actual)
        )

    def test_cell_count_mismatch_reported(self):
        actual = _digest()
        actual["cells"].append(copy.deepcopy(actual["cells"][0]))
        mismatches = compare_digests(_digest(), actual)
        assert any("cells" in m for m in mismatches)

    def test_per_cell_hash_is_compared(self):
        actual = _digest()
        actual["cells"][0]["digest"] = "different-hash"
        assert compare_digests(_digest(), actual) == [
            "cells[0].digest: golden='abc' actual='different-hash'"
        ]

    def test_missing_system_reported(self):
        actual = _digest()
        actual["cells"][0]["systems"] = {}
        mismatches = compare_digests(_digest(), actual)
        assert any("missing" in m for m in mismatches)

    def test_axes_are_exact(self):
        actual = _digest()
        actual["axes"][0]["values"] = [[7]]
        mismatches = compare_digests(_digest(), actual)
        assert any("axes" in m for m in mismatches)


class TestGoldenWorkflow:
    def test_load_missing_golden_is_actionable(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="--update"):
            sweep_golden.load_sweep_golden("table2a-gossip-length", tmp_path)

    def test_write_then_load_round_trips(self, tmp_path):
        committed = sweep_golden.load_sweep_golden("table2a-gossip-length", GOLDEN_DIR)
        path = tmp_path / "table2a-gossip-length.json"
        path.write_text(json.dumps(committed, indent=2, sort_keys=True) + "\n")
        reloaded = sweep_golden.load_sweep_golden("table2a-gossip-length", tmp_path)
        assert compare_digests(reloaded, committed) == []

    def test_main_reports_ok_for_committed_goldens(self):
        buffer = io.StringIO()
        code = sweep_golden.main(
            ["table2a-gossip-length", "--golden-dir", str(GOLDEN_DIR), "--jobs", "2"],
            out=buffer,
        )
        assert code == 0
        assert "ok   table2a-gossip-length" in buffer.getvalue()

    def test_main_fails_on_missing_golden(self, tmp_path):
        buffer = io.StringIO()
        code = sweep_golden.main(
            ["table2a-gossip-length", "--golden-dir", str(tmp_path)], out=buffer
        )
        assert code == 1
        assert "FAIL table2a-gossip-length" in buffer.getvalue()

    def test_main_rejects_unknown_sweeps(self, capsys):
        assert sweep_golden.main(["no-such-sweep"], out=io.StringIO()) == 2
        assert "unknown sweep" in capsys.readouterr().err

    def test_main_update_writes_files(self, tmp_path):
        buffer = io.StringIO()
        code = sweep_golden.main(
            ["table2a-gossip-length", "--update", "--jobs", "2",
             "--golden-dir", str(tmp_path)],
            out=buffer,
        )
        assert code == 0
        digest = json.loads((tmp_path / "table2a-gossip-length.json").read_text())
        assert digest["sweep"] == "table2a-gossip-length"
        assert digest["scale"] == sweep_golden.SWEEP_GOLDEN_SCALE
        committed = sweep_golden.load_sweep_golden("table2a-gossip-length", GOLDEN_DIR)
        assert compare_digests(committed, digest) == []
