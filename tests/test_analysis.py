"""Tests for the repro.analysis static-analysis engine.

Fixture files under ``tests/analysis_fixtures/`` carry deliberate rule
violations; lines expected to be flagged end in an ``# expect: RULE-ID``
marker, which these tests compare against the engine's actual findings.
Scoped rules (DET002/DET003/DET005/DET007) are exercised by analyzing fixtures
under virtual ``src/repro/<package>/...`` paths.
"""

from __future__ import annotations

import io
import json
import re
import subprocess
from pathlib import Path

import pytest

from repro import cli
from repro.analysis import (
    Finding,
    ModuleContext,
    Rule,
    analyze_paths,
    analyze_source,
    get_rule,
    iter_python_files,
    iter_rules,
    register_rule,
    rule_ids,
)
from repro.analysis.cli import changed_python_files

FIXTURES = Path(__file__).parent / "analysis_fixtures"
SRC = Path(__file__).resolve().parents[1] / "src"

#: fixtures exercising package-scoped rules are analyzed under these paths.
VIRTUAL_PATHS = {
    "det002_positive.py": "src/repro/core/fixture.py",
    "det002_negative.py": "src/repro/perf/fixture.py",
    "det002_suppressed.py": "src/repro/core/fixture.py",
    "det003_positive.py": "src/repro/core/fixture.py",
    "det003_negative.py": "src/repro/core/fixture.py",
    "det003_suppressed.py": "src/repro/sim/fixture.py",
    "det005_positive.py": "src/repro/datastructures/fixture.py",
    "det005_negative.py": "src/repro/datastructures/fixture.py",
    "det005_suppressed.py": "src/repro/core/fixture.py",
    "det007_positive.py": "src/repro/cli/fixture.py",
    "det007_negative.py": "src/repro/experiments/fixture.py",
    "det007_suppressed.py": "src/repro/experiments/fixture.py",
}
DEFAULT_VIRTUAL = "src/repro/workload/fixture.py"

_EXPECT = re.compile(r"#\s*expect:\s*([A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)")

ALL_RULES = ("DET001", "DET002", "DET003", "DET004", "DET005", "DET006", "DET007")


def analyze_fixture(name: str):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return analyze_source(source, path=VIRTUAL_PATHS.get(name, DEFAULT_VIRTUAL))


def expected_findings(name: str):
    """Parse the ``# expect: RULE-ID`` markers of one fixture file."""
    expected = set()
    for lineno, line in enumerate(
        (FIXTURES / name).read_text(encoding="utf-8").splitlines(), start=1
    ):
        match = _EXPECT.search(line)
        if match:
            for rule_id in match.group(1).split(","):
                expected.add((lineno, rule_id.strip()))
    return expected


class TestFixtures:
    @pytest.mark.parametrize("rule_id", ALL_RULES)
    def test_positive_fixture_matches_markers(self, rule_id):
        name = f"{rule_id.lower()}_positive.py"
        report = analyze_fixture(name)
        actual = {(finding.line, finding.rule) for finding in report.findings}
        expected = expected_findings(name)
        assert expected, f"{name} has no expect markers"
        assert actual == expected

    @pytest.mark.parametrize("rule_id", ALL_RULES)
    def test_negative_fixture_is_clean(self, rule_id):
        report = analyze_fixture(f"{rule_id.lower()}_negative.py")
        assert report.findings == []
        assert report.suppressed == []

    @pytest.mark.parametrize("rule_id", ALL_RULES)
    def test_suppressed_fixture_reports_nothing_but_counts(self, rule_id):
        report = analyze_fixture(f"{rule_id.lower()}_suppressed.py")
        assert report.findings == []
        assert {finding.rule for finding in report.suppressed} == {rule_id}

    def test_malformed_suppressions_are_findings(self):
        report = analyze_fixture("suppression_malformed.py")
        rules = [finding.rule for finding in report.findings]
        # allow() with no id and allow(NOTARULE) -> ANA100 (x2);
        # allow(DET999) -> ANA101 unknown rule;
        # allow(DET001) on a clean line -> ANA102 unused;
        # and the invalid suppression does NOT silence the DET001 violation.
        assert rules.count("ANA100") == 2
        assert rules.count("ANA101") == 1
        assert rules.count("ANA102") == 1
        assert rules.count("DET001") == 1
        assert report.suppressed == []


class TestSuppressions:
    def test_multi_rule_suppression_on_preceding_line(self):
        source = (
            "import time\n"
            "\n"
            "\n"
            "def f(ids: set):\n"
            "    # repro: allow(DET002, DET003)\n"
            "    return [time.time() for x in ids]\n"
        )
        report = analyze_source(source, path="src/repro/core/fixture.py")
        assert report.findings == []
        assert {finding.rule for finding in report.suppressed} == {
            "DET002",
            "DET003",
        }

    def test_same_line_suppression_only_covers_its_line(self):
        source = (
            "import time\n"
            "\n"
            "\n"
            "def f():\n"
            "    a = time.time()  # repro: allow(DET002)\n"
            "    b = time.time()\n"
            "    return a + b\n"
        )
        report = analyze_source(source, path="src/repro/core/fixture.py")
        assert [finding.line for finding in report.findings] == [6]
        assert [finding.line for finding in report.suppressed] == [5]


class TestEngine:
    def test_syntax_error_is_a_finding(self):
        report = analyze_source("def broken(:\n", path="src/repro/core/bad.py")
        assert [finding.rule for finding in report.findings] == ["ANA000"]

    def test_fixture_directory_is_excluded_from_discovery(self):
        files = iter_python_files([FIXTURES.parent])
        assert files, "tests/ should contain python files"
        assert not any("analysis_fixtures" in f.parts for f in files)

    def test_explicit_fixture_file_is_still_analyzed(self):
        files = iter_python_files([FIXTURES / "det001_positive.py"])
        assert len(files) == 1

    def test_report_to_dict_and_text(self):
        report = analyze_fixture("det006_positive.py")
        document = report.to_dict()
        assert document["ok"] is False
        assert document["files_analyzed"] == 1
        assert all(
            set(entry) == {"path", "line", "column", "rule", "message"}
            for entry in document["findings"]
        )
        text = report.format_text()
        assert "DET006" in text
        assert text.endswith("3 finding(s), 0 suppressed")

    def test_module_context_scoping(self):
        context = ModuleContext(
            path="src/repro/core/system.py", tree=None, source_lines=()
        )
        assert context.repro_parts == ("core", "system")
        assert context.package() == "core"
        outside = ModuleContext(path="scripts/tool.py", tree=None, source_lines=())
        assert outside.repro_parts is None
        assert outside.package() is None

    @pytest.mark.parametrize("path, flagged", [
        ("src/repro/session.py", False),
        ("src/repro/sim/sharded.py", False),
        ("src/repro/sim/engine.py", True),
        ("src/repro/experiments/driver.py", True),
        ("scripts/block_check.py", False),
    ])
    def test_only_the_session_and_the_worker_rebuild_build_a_runner(self, path, flagged):
        source = "def build(setup):\n    return ExperimentRunner(setup)\n"
        rules = [finding.rule for finding in analyze_source(source, path=path).findings]
        assert rules == (["DET007"] if flagged else [])


class TestRegistry:
    def test_all_builtin_rules_registered(self):
        assert set(ALL_RULES).issubset(set(rule_ids()))

    def test_rules_have_title_and_rationale(self):
        for rule in iter_rules():
            assert rule.title
            assert rule.rationale

    def test_register_rejects_bad_and_duplicate_ids(self):
        class Bad(Rule):
            rule_id = "not-a-rule-id"

        with pytest.raises(ValueError):
            register_rule(Bad())

        class Duplicate(Rule):
            rule_id = "DET001"

        with pytest.raises(ValueError):
            register_rule(Duplicate())

    def test_get_rule_unknown_raises(self):
        with pytest.raises(KeyError):
            get_rule("XYZ999")


class TestMeta:
    def test_src_tree_is_clean_at_head(self):
        """The acceptance invariant: `repro analyze src/` has zero findings."""
        report = analyze_paths([SRC])
        assert report.findings == [], "\n" + "\n".join(
            finding.format() for finding in report.findings
        )
        assert len(report.files) > 50

    def test_every_suppression_in_tree_names_a_rule(self):
        """ANA100/ANA101/ANA102 are findings, so a clean tree implies every
        suppression is well-formed, names a known rule and is used; spot-check
        by counting the actual directive comment tokens."""
        import tokenize

        directives = 0
        for path in iter_python_files([SRC]):
            reader = io.StringIO(path.read_text(encoding="utf-8")).readline
            directives += sum(
                1
                for token in tokenize.generate_tokens(reader)
                if token.type == tokenize.COMMENT
                and "repro: allow(" in token.string
            )
        report = analyze_paths([SRC])
        assert directives > 0, "the tree should exercise the suppression syntax"
        assert len(report.suppressed) == directives
        assert set(rule_ids()).issuperset(
            finding.rule for finding in report.suppressed
        )


class TestCli:
    def run(self, args):
        buffer = io.StringIO()
        code = cli.main(args, out=buffer)
        return code, buffer.getvalue()

    def test_parser_accepts_analyze_verb(self):
        args = cli.build_parser().parse_args(
            ["analyze", "--format", "json", "--changed", "src"]
        )
        assert args.command == "analyze"
        assert args.format == "json"
        assert args.changed

    def test_analyze_flags_fixture_violations(self):
        code, output = self.run(
            ["analyze", str(FIXTURES / "det006_positive.py")]
        )
        assert code == 1
        assert "DET006" in output

    def test_analyze_json_format(self):
        code, output = self.run(
            ["analyze", "--format", "json", str(FIXTURES / "det006_positive.py")]
        )
        assert code == 1
        document = json.loads(output)
        assert document["ok"] is False
        assert {entry["rule"] for entry in document["findings"]} == {"DET006"}

    def test_analyze_rules_filter(self):
        code, _ = self.run(
            ["analyze", "--rules", "DET001",
             str(FIXTURES / "det006_positive.py")]
        )
        assert code == 0

    def test_analyze_unknown_rule_is_usage_error(self, capsys):
        code, _ = self.run(["analyze", "--rules", "XYZ999", str(FIXTURES)])
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_analyze_missing_path_is_usage_error(self, capsys):
        code, _ = self.run(["analyze", "does/not/exist"])
        assert code == 2

    def test_analyze_list_rules(self):
        code, output = self.run(["analyze", "--list-rules"])
        assert code == 0
        for rule_id in ALL_RULES:
            assert rule_id in output

    def test_analyze_src_is_clean(self):
        code, output = self.run(["analyze", str(SRC)])
        assert code == 0
        assert "0 finding(s)" in output


class TestChanged:
    @pytest.fixture
    def git_repo(self, tmp_path):
        def git(*args):
            subprocess.run(
                ["git", *args], cwd=tmp_path, check=True, capture_output=True
            )

        git("init")
        git("config", "user.email", "test@example.invalid")
        git("config", "user.name", "test")
        (tmp_path / "clean.py").write_text("VALUE = 1\n", encoding="utf-8")
        git("add", "clean.py")
        git("commit", "-m", "seed")
        return tmp_path

    def test_changed_python_files_lists_diff_and_untracked(self, git_repo):
        (git_repo / "clean.py").write_text("VALUE = 2\n", encoding="utf-8")
        (git_repo / "fresh.py").write_text("VALUE = 3\n", encoding="utf-8")
        (git_repo / "notes.txt").write_text("not python\n", encoding="utf-8")
        names = {path.name for path in changed_python_files(git_repo)}
        assert names == {"clean.py", "fresh.py"}

    def test_analyze_changed_only_lints_the_diff(self, git_repo, monkeypatch):
        (git_repo / "bad.py").write_text(
            "def f(seen=[]):\n    return seen\n", encoding="utf-8"
        )
        monkeypatch.chdir(git_repo)
        buffer = io.StringIO()
        code = cli.main(["analyze", "--changed", "."], out=buffer)
        assert code == 1
        output = buffer.getvalue()
        assert "DET006" in output
        assert "1 file(s) analyzed" in output

    def test_analyze_changed_with_no_changes_is_clean(self, git_repo, monkeypatch):
        monkeypatch.chdir(git_repo)
        buffer = io.StringIO()
        code = cli.main(["analyze", "--changed", "."], out=buffer)
        assert code == 0
        assert "0 file(s) analyzed" in buffer.getvalue()


class TestFindingOrdering:
    def test_findings_sort_by_location(self):
        a = Finding(path="a.py", line=2, column=1, rule="DET001", message="x")
        b = Finding(path="a.py", line=10, column=1, rule="DET001", message="x")
        c = Finding(path="b.py", line=1, column=1, rule="DET001", message="x")
        assert sorted([c, b, a]) == [a, b, c]
