"""Size budget: no module under ``src/repro/`` grows past 700 lines.

ROADMAP direction 3 ("no file in ``src/`` over 700 lines") as a gate, with
no exceptions.  Beside it: one run loop, one recording path, no config field
that no scenario can set, and no definition in ``src/`` that only tests call.
"""

from __future__ import annotations

import ast
import re
from dataclasses import fields
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

from repro.core.config import FlowerConfig, GossipConfig
from repro.network.topology import TopologyConfig
from repro.workload.generator import WorkloadConfig

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "repro"
LIMIT = 700


def _line_counts() -> dict:
    return {
        path.relative_to(SRC).as_posix(): len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted(SRC.rglob("*.py"))
    }


def test_no_module_exceeds_its_budget():
    over = {name: lines for name, lines in _line_counts().items() if lines > LIMIT}
    assert not over, f"modules over the {LIMIT}-line budget: {over}"


def test_no_further_run_loop_replays_a_trace():
    """One place runs a Flower system over a trace (``BlockedRun.run_block``):
    a module that starts calling ``.schedule_trace(`` is a second run loop."""
    callers = {
        path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8").count(".schedule_trace(")
        for path in sorted(SRC.rglob("*.py"))
    }
    assert {name: count for name, count in callers.items() if count} == {
        "sim/sharded.py": 1,  # the loop
        "experiments/driver.py": 1,  # run_squirrel
        "perf/suite.py": 2,  # the queue micro-benchmarks
    }


def test_one_recording_path():
    """A run's rows reach the metrics only through its one fold
    (``ExperimentRunner.fold_outcomes``): no module calls the one-query API
    ``process_query``, and no system builds a collector of its own."""
    sources = {
        path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py"))
    }
    assert [name for name, text in sources.items() if ".process_query(" in text] == []
    assert [
        name
        for name, text in sources.items()
        if name.startswith(("core/", "baselines/")) and "MetricsCollector(" in text
    ] == []


def test_every_config_field_is_set_by_a_spec():
    """A field that ``ScenarioSpec.to_flower_config`` / ``to_setup`` never
    passes has one value in every run: it is a constant, not an option."""
    tree = ast.parse((SRC / "scenarios" / "spec.py").read_text(encoding="utf-8"))
    builders = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ("to_flower_config", "to_setup")
    ]
    assert len(builders) == 2
    configs = (FlowerConfig, GossipConfig, TopologyConfig, WorkloadConfig)
    passed = {config.__name__: set() for config in configs}
    for builder in builders:
        for node in ast.walk(builder):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in passed:
                passed[node.func.id].update(keyword.arg for keyword in node.keywords)
    unset = {
        spec_field.name
        for config in configs
        for spec_field in fields(config)
        if spec_field.name not in passed[config.__name__]
    }
    assert unset == set()


# -- the caller fence -----------------------------------------------------------

#: definitions under ``src/`` that nothing but tests calls, each with the reason
#: it stays; an entry is a bare name or ``Class.name``
TEST_ONLY_ALLOWED = {
    "process_query": "ROADMAP 7(a): the public one-query API the explain and explorer arcs drive",
    "leave_directory": "ROADMAP 9: Section 5.2's voluntary leave, an action the explorer takes",
    "records": "ROADMAP 7(a): leaves with the retained-column mode once 1(f) frees the harness",
    "AgedView.contacts": "ROADMAP 7(b): AgedView moves to tests/reference/ after 1(f)",
    "AgedView.evict_older_than": "ROADMAP 7(b): AgedView moves to tests/reference/ after 1(f)",
    "AgedView.select_youngest": "ROADMAP 7(b): AgedView moves to tests/reference/ after 1(f)",
    "AgedView.select_subset": "ROADMAP 7(b): the oracle of ColumnarView's subset draw",
    "log_message": "http.server calls it per request: it is `repro serve --verbose`'s request log",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_HANDLER = re.compile(r"do_[A-Z]+")


def _is_exempt(node: ast.AST) -> bool:
    """Dunders, ``@register_*`` definitions and ``http.server`` ``do_*``
    handlers are called by name from outside the program."""
    name = node.name
    if name.startswith("__") and name.endswith("__") or _HANDLER.fullmatch(name):
        return True
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        called = getattr(target, "id", None) or getattr(target, "attr", "")
        if called.startswith("register_"):
            return True
    return False


def _definitions(tree: ast.AST) -> Iterator[Tuple[str, ast.AST, bool]]:
    """``(qualified name, node, is a member)`` of every function, method and
    class; a member is defined directly in a class body."""
    def walk(node: ast.AST, prefix: str, in_class: bool) -> Iterator[Tuple[str, ast.AST, bool]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = prefix + child.name
                yield qualname, child, in_class
                yield from walk(child, qualname + ".", isinstance(child, ast.ClassDef))
            else:
                yield from walk(child, prefix, in_class)

    return walk(tree, "", False)


def _references(tree: ast.AST) -> Iterator[Tuple[str, int, bool]]:
    """``(name, line, is a bare name)`` of every name, attribute, import alias
    and identifier-shaped string, leaving out the ``__all__`` lists."""
    exports = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(target, "id", None) == "__all__" for target in targets):
                exports.update(id(sub) for sub in ast.walk(node.value))
    for node in ast.walk(tree):
        if id(node) in exports:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], getattr(node, "lineno", 0), False
            if node.asname:
                yield node.asname, getattr(node, "lineno", 0), False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _IDENTIFIER.fullmatch(node.value):
                yield node.value, node.lineno, False


def uncalled_definitions(modules: Mapping[str, str], texts: Iterable[str] = ()) -> List[str]:
    """``path:qualname`` of every definition in a ``src/`` module of
    ``modules`` (path -> source) whose name nothing references outside its
    own definition — in any of ``modules`` or as an identifier in ``texts``.

    A member of a class is reached through its instance or class, so only an
    attribute, an import alias or a string names it: a local variable that
    happens to share its name is not a caller."""
    trees = {path: ast.parse(source) for path, source in modules.items()}
    references: Dict[str, List[Tuple[str, int, bool]]] = {}
    for path, tree in trees.items():
        for name, line, bare in _references(tree):
            references.setdefault(name, []).append((path, line, bare))
    for text in texts:
        for name in _IDENTIFIER.findall(text):
            references.setdefault(name, []).append(("", 0, False))
    uncalled = []
    for path, tree in trees.items():
        if not path.startswith("src/"):
            continue
        for qualname, node, member in _definitions(tree):
            if _is_exempt(node):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if not any(
                (where != path or not first <= line <= node.end_lineno)
                and not (member and bare)
                for where, line, bare in references.get(node.name, ())
            ):
                uncalled.append(f"{path}:{qualname}")
    return uncalled


def _callers() -> Tuple[Dict[str, str], List[str]]:
    """The program and what runs it: ``src/``, ``benchmarks/``, ``scripts/``
    and ``examples/``, plus the ``Makefile`` and ``.github/`` as text."""
    modules = {
        path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
        for top in ("src", "benchmarks", "scripts", "examples")
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    texts = [(ROOT / "Makefile").read_text(encoding="utf-8")] + [
        path.read_text(encoding="utf-8")
        for path in sorted((ROOT / ".github").rglob("*"))
        if path.is_file()
    ]
    return modules, texts


def _allowed_names(found: str) -> set:
    """The allowlist keys that can name ``path:qualname``: itself and its bare name."""
    qualname = found.rsplit(":", 1)[1]
    return {qualname, qualname.rsplit(".", 1)[-1]}


def test_every_src_definition_has_a_caller():
    """A function, method or class under ``src/repro/`` that only tests call
    is dead weight in ``src/``: delete it, or move it to ``tests/reference/``
    when a test keeps it as the oracle of a faster path."""
    uncalled = uncalled_definitions(*_callers())
    assert [found for found in uncalled if not _allowed_names(found) & set(TEST_ONLY_ALLOWED)] == []
    # an entry whose definition gained a caller, or left, goes too
    assert set(TEST_ONLY_ALLOWED) <= set().union(*map(_allowed_names, uncalled))
    assert len(TEST_ONLY_ALLOWED) <= 12


def test_the_fence_flags_exactly_the_uncalled_definition():
    module = """
def register_model(fn):
    return fn

def uncalled():
    return uncalled()

def called():
    return 1

@register_model
def registered():
    return called()

class Handler:
    def do_GET(self):
        return None

HANDLER = Handler
__all__ = ["uncalled"]
"""
    assert uncalled_definitions({"src/repro/m.py": module}) == ["src/repro/m.py:uncalled"]
    # a caller outside src/ counts; a test does not, since tests are not scanned
    elsewhere = {"src/repro/m.py": module, "scripts/s.py": "from repro.m import uncalled"}
    assert uncalled_definitions(elsewhere) == []
    assert uncalled_definitions({"src/repro/m.py": module}, ["make uncalled"]) == []


def test_a_recursive_call_is_not_a_caller():
    module = "def walk(node):\n    return [walk(child) for child in node]\n"
    assert uncalled_definitions({"src/repro/m.py": module}) == ["src/repro/m.py:walk"]


def test_an_export_is_not_a_caller_but_a_string_naming_it_is():
    exported = 'def helper():\n    return 1\n\n__all__ = ["helper"]\n'
    assert uncalled_definitions({"src/repro/m.py": exported}) == ["src/repro/m.py:helper"]
    looked_up = exported + 'HANDLERS = {"x": "helper"}\n'
    assert uncalled_definitions({"src/repro/m.py": looked_up}) == []


def test_a_method_is_flagged_by_its_qualified_name_until_an_attribute_names_it():
    module = "class Peer:\n    def fail(self):\n        self.alive = False\n\nPEER = Peer()\n"
    assert uncalled_definitions({"src/repro/m.py": module}) == ["src/repro/m.py:Peer.fail"]
    assert uncalled_definitions({"src/repro/m.py": module + "PEER.fail()\n"}) == []


def test_a_local_variable_sharing_a_method_name_is_not_a_caller():
    module = (
        "class Peer:\n    def view(self):\n        return self._view\n\n"
        "def build(peer):\n    view = peer._view\n    return view\n\n"
        "PEER = Peer()\nBUILT = build(PEER)\n"
    )
    assert uncalled_definitions({"src/repro/m.py": module}) == ["src/repro/m.py:Peer.view"]
    assert uncalled_definitions({"src/repro/m.py": module + "VIEW = PEER.view()\n"}) == []
    # a function, unlike a member, is called by its bare name
    function = "def view():\n    return 1\n\nVIEW = view()\n"
    assert uncalled_definitions({"src/repro/m.py": function}) == []


def test_an_import_alias_counts_as_a_caller():
    modules = {
        "src/repro/m.py": "def build():\n    return 1\n",
        "benchmarks/b.py": "from repro.m import build as make\nmake()\n",
    }
    assert uncalled_definitions(modules) == []


def test_only_definitions_under_src_are_flagged():
    modules = {"src/repro/m.py": "VALUE = 1\n", "scripts/s.py": "def main():\n    return 1\n"}
    assert uncalled_definitions(modules) == []
