"""Every function in the strict tier of ``mypy.ini`` is fully annotated.

``make typecheck`` needs mypy, which not every checkout has; this AST scan
holds the one rule of the strict tier (``disallow_untyped_defs`` /
``disallow_incomplete_defs``) that needs no type inference, so an
unannotated ``def`` in a strict package fails the test suite as well.
"""

import ast
import configparser
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SECTION_PREFIX = "mypy-repro."


def strict_packages():
    config = configparser.ConfigParser()
    config.read(ROOT / "mypy.ini")
    return sorted(
        section[len(SECTION_PREFIX):].removesuffix(".*")
        for section in config.sections()
        if section.startswith(SECTION_PREFIX)
        and config.getboolean(section, "disallow_untyped_defs", fallback=False)
    )


def unannotated_defs(path: Path):
    """``file:line name`` of each def with an unannotated argument or return.

    As in mypy, ``self``/``cls`` need no annotation, and an ``__init__`` with
    an annotated argument may leave its ``None`` return implicit.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        arguments = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        arguments += [extra for extra in (args.vararg, args.kwarg) if extra is not None]
        explicit = [a for a in arguments if a.arg not in ("self", "cls")]
        missing_argument = any(a.annotation is None for a in explicit)
        implicit_init = node.name == "__init__" and explicit and not missing_argument
        if missing_argument or (node.returns is None and not implicit_init):
            found.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    return found


def test_network_and_overlay_are_in_the_strict_tier():
    assert {"network", "overlay"} <= set(strict_packages())


@pytest.mark.parametrize("package", strict_packages())
def test_every_def_is_fully_annotated(package):
    modules = sorted((ROOT / "src" / "repro" / package).rglob("*.py"))
    assert modules
    assert [found for path in modules for found in unannotated_defs(path)] == []
