"""Tests for the sweep artifact writers (CSV / JSON / markdown)."""

import csv
import io
import json

import pytest

from repro.sweeps.artifacts import (
    KNOWN_FORMATS,
    export_artifacts,
    format_sweep_result,
    result_table,
    to_csv,
    to_markdown,
)
from repro.sweeps.engine import run_sweep

TINY_SCALE = 0.1


@pytest.fixture(scope="module")
def table2a_result():
    return run_sweep("table2a-gossip-length", scale=TINY_SCALE)


@pytest.fixture(scope="module")
def fig6_result():
    return run_sweep("fig6-hit-ratio-comparison", scale=TINY_SCALE)


class TestResultTable:
    def test_single_system_columns_are_unprefixed(self, table2a_result):
        header, rows = result_table(table2a_result)
        assert header[0] == "Lgossip"
        assert "hit_ratio" in header
        assert header[-2:] == ["seed", "digest"]
        assert len(rows) == 3
        assert [row[0] for row in rows] == ["5", "10", "20"]

    def test_multi_system_columns_are_prefixed(self, fig6_result):
        header, rows = result_table(fig6_result)
        assert "flower.hit_ratio" in header
        assert "squirrel.hit_ratio" in header
        assert len(rows) == 1


class TestCsv:
    def test_csv_parses_and_matches_the_grid(self, table2a_result):
        parsed = list(csv.DictReader(io.StringIO(to_csv(table2a_result))))
        assert len(parsed) == 3
        assert [row["Lgossip"] for row in parsed] == ["5", "10", "20"]
        for row, cell in zip(parsed, table2a_result.cells):
            assert float(row["hit_ratio"]) == cell.metric("hit_ratio")
            assert row["digest"] == cell.digest


class TestMarkdown:
    def test_markdown_has_a_table_and_metadata(self, table2a_result):
        text = to_markdown(table2a_result)
        assert text.startswith("# Sweep: table2a-gossip-length")
        assert "base scenario: `paper-default`" in text
        assert text.count("|") > 10
        assert "| 5 " in text


class TestTerminalTable:
    def test_format_elides_the_digest_column(self, table2a_result):
        text = format_sweep_result(table2a_result)
        assert "Sweep: table2a-gossip-length" in text
        assert "digest" not in text
        assert "Lgossip" in text


class TestExport:
    def test_export_writes_all_formats(self, tmp_path, table2a_result):
        paths = export_artifacts(table2a_result, tmp_path)
        assert sorted(path.suffix for path in paths) == [".csv", ".json", ".md"]
        for path in paths:
            assert path.exists()
            assert path.stem == "table2a-gossip-length"
        document = json.loads((tmp_path / "table2a-gossip-length.json").read_text())
        assert document == table2a_result.to_dict()

    def test_export_subset_of_formats(self, tmp_path, table2a_result):
        paths = export_artifacts(table2a_result, tmp_path, formats=("csv",))
        assert [path.suffix for path in paths] == [".csv"]

    def test_unknown_format_rejected(self, tmp_path, table2a_result):
        with pytest.raises(ValueError, match="unknown artifact format"):
            export_artifacts(table2a_result, tmp_path, formats=("xlsx",))
        assert KNOWN_FORMATS == ("csv", "json", "md")

    def test_export_creates_the_directory(self, tmp_path, table2a_result):
        target = tmp_path / "deep" / "nested"
        export_artifacts(table2a_result, target, formats=("json",))
        assert (target / "table2a-gossip-length.json").exists()

    def test_interrupted_export_leaves_every_present_file_parseable(
        self, tmp_path, table2a_result, monkeypatch
    ):
        """Killed between (or inside) file writes, an export over an existing
        one leaves each artifact whole — old or new, never truncated."""
        from pathlib import Path

        export_artifacts(table2a_result, tmp_path)
        json_path = tmp_path / "table2a-gossip-length.json"
        before = json_path.read_text()
        real_write_text = Path.write_text

        def dying_write_text(self, text, *args, **kwargs):
            if self.name.endswith(".csv") or self.name.endswith(".csv.tmp"):
                return real_write_text(self, text, *args, **kwargs)
            real_write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise KeyboardInterrupt("killed mid-write")

        monkeypatch.setattr(Path, "write_text", dying_write_text)
        with pytest.raises(KeyboardInterrupt):
            export_artifacts(table2a_result, tmp_path)
        monkeypatch.undo()

        assert json_path.read_text() == before
        assert json.loads(json_path.read_text()) == table2a_result.to_dict()
        rows = list(csv.reader(io.StringIO((tmp_path / "table2a-gossip-length.csv").read_text())))
        assert len(rows) == 1 + len(table2a_result.cells)
        assert (tmp_path / "table2a-gossip-length.md").read_text().endswith("|\n")
