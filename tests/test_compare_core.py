"""The one comparison walk, :func:`repro.scenarios.golden.differing_leaves`.

The scenario gate, the sweep gate and ``repro scenarios diff`` all render
this walk.  Over nested JSON documents it returns nothing exactly when the
two documents are equal; every row names a leaf that differs or that one
side lacks, with the value each side holds there; and no differing leaf is
left out.  Worked cases pin the row paths of the two digest shapes: a
scenario digest (header, ``systems``, ``phases``) and a sweep digest
(header, ``axes``, ``cells`` with their per-cell ``digest``).
"""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path
from typing import Iterator, Tuple

from hypothesis import given, settings, strategies as st

from repro.scenarios.golden import MISSING, compare_digests, differing_leaves

GOLDEN_DIR = Path(__file__).parent / "goldens"

# -- reading a document at a row's path ---------------------------------------


def is_leaf(value: object) -> bool:
    return not isinstance(value, (dict, list)) or not value


_STEP = re.compile(r"\[(\d+)\]|\.?([^.\[]+)")


def leaf_at(document: object, dotted: str) -> object:
    """The leaf at ``dotted`` (``a.b[0].c``), or MISSING where the document
    holds nothing there or holds a non-empty container."""
    for index, key in _STEP.findall(dotted):
        if index and isinstance(document, list) and int(index) < len(document):
            document = document[int(index)]
        elif key and isinstance(document, dict) and key in document:
            document = document[key]
        else:
            return MISSING
    return document if is_leaf(document) else MISSING


def leaves(document: object, path: str = "") -> Iterator[Tuple[str, object]]:
    """``(dotted path, value)`` of every scalar and empty container."""
    if isinstance(document, dict) and document:
        for key, value in document.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(document, list) and document:
        for index, value in enumerate(document):
            yield from leaves(value, f"{path}[{index}]")
    else:
        yield path, document


# -- documents ----------------------------------------------------------------

#: keys without the path separators; "0" tells a dict key from a list index
KEYS = st.sampled_from(("a", "b", "0", "hit_ratio", "systems", "phases"))
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(("", "x", "flower"))
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=12,
)


def edit(document: object, draw) -> object:
    """A copy of ``document`` with some of its values replaced or dropped."""
    if isinstance(document, dict):
        result = {}
        for key, value in document.items():
            action = draw(st.sampled_from(("keep", "keep", "recurse", "replace", "drop")))
            if action == "recurse":
                result[key] = edit(value, draw)
            elif action == "replace":
                result[key] = draw(DOCUMENTS)
            elif action == "keep":
                result[key] = copy.deepcopy(value)
        if draw(st.booleans()):
            result[draw(KEYS)] = draw(DOCUMENTS)
        return result
    if isinstance(document, list):
        result = [edit(value, draw) for value in document]
        return result[: draw(st.integers(0, len(result)))] if draw(st.booleans()) else result
    return draw(st.one_of(st.just(document), SCALARS))


@st.composite
def document_pairs(draw):
    left = draw(DOCUMENTS)
    kind = draw(st.sampled_from(("copy", "edit", "edit", "other")))
    if kind == "copy":
        right = copy.deepcopy(left)
    elif kind == "edit":
        right = edit(left, draw)
    else:
        right = draw(DOCUMENTS)
    return left, right


# -- the properties -----------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(document_pairs())
def test_no_rows_exactly_when_the_documents_are_equal(pair):
    left, right = pair
    assert (differing_leaves(left, right) == []) == (left == right)


@settings(max_examples=400, deadline=None)
@given(document_pairs())
def test_every_row_names_a_leaf_that_differs_or_is_missing(pair):
    left, right = pair
    for path, left_value, right_value in differing_leaves(left, right):
        assert leaf_at(left, path) == left_value
        assert leaf_at(right, path) == right_value
        assert left_value != right_value


@settings(max_examples=400, deadline=None)
@given(document_pairs())
def test_no_differing_leaf_is_left_out(pair):
    left, right = pair
    paths = {path for path, _, _ in differing_leaves(left, right)}
    for document, other in ((left, right), (right, left)):
        for path, value in leaves(document):
            if leaf_at(other, path) != value:
                assert path in paths


@settings(max_examples=200, deadline=None)
@given(document_pairs())
def test_unchanged_adds_the_equal_leaves(pair):
    left, right = pair
    every = differing_leaves(left, right, unchanged=True)
    assert [row for row in every if row[1] != row[2]] == differing_leaves(left, right)
    assert {path for path, _, _ in every} == {
        path for document in (left, right) for path, _ in leaves(document)
    }


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(GOLDEN_DIR.rglob("*.json"))), st.data())
def test_one_moved_value_of_a_committed_golden_is_its_one_row(path, data):
    """Scenario and sweep goldens alike: headers, metrics, phases, axes and
    per-cell digests are all leaves of the one walk."""
    committed = json.loads(path.read_text(encoding="utf-8"))
    moved_path, value = data.draw(st.sampled_from(list(leaves(committed))))
    moved = copy.deepcopy(committed)
    steps = _STEP.findall(moved_path)
    parent = moved
    for index, key in steps[:-1]:
        parent = parent[int(index)] if index else parent[key]
    index, key = steps[-1]
    parent[int(index) if index else key] = "moved"
    assert differing_leaves(committed, copy.deepcopy(committed)) == []
    assert compare_digests(committed, moved) == [
        f"{moved_path}: golden={value!r} actual='moved'"
    ]


# -- the two digest shapes ----------------------------------------------------


def scenario_digest(hit_ratio=0.7, steady=0.8):
    return {
        "scenario": "paper-default",
        "seed": 42,
        "scale": 0.25,
        "systems": {
            "flower": {
                "metrics": {"num_queries": 1000, "hit_ratio": hit_ratio},
                "phases": {"steady": {"hit_ratio": steady}},
            }
        },
    }


def sweep_digest(cell_digest="abc", seed=42):
    cell = {
        "coordinates": [0],
        "labels": [["L", "5"]],
        "assignments": {"gossip_length": 5},
        "seed": seed,
        "digest": cell_digest,
        "systems": scenario_digest()["systems"],
    }
    return {
        "sweep": "g",
        "base": "paper-default",
        "base_seed": 42,
        "scale": 0.25,
        "seed_policy": "shared",
        "axes": [{"label": "L", "values": [[5]]}],
        "cells": [cell],
    }


def test_scenario_rows_name_header_metric_and_phase_leaves():
    changed = scenario_digest(hit_ratio=0.700001, steady=0.81)
    changed["seed"] = 43
    assert compare_digests(scenario_digest(), changed) == [
        "seed: golden=42 actual=43",
        "systems.flower.metrics.hit_ratio: golden=0.7 actual=0.700001",
        "systems.flower.phases.steady.hit_ratio: golden=0.8 actual=0.81",
    ]


def test_a_vanished_metric_and_a_new_one_are_missing_on_one_side():
    changed = scenario_digest()
    metrics = changed["systems"]["flower"]["metrics"]
    del metrics["hit_ratio"]
    metrics["fraction_server_miss"] = 0.0
    assert compare_digests(scenario_digest(), changed) == [
        "systems.flower.metrics.hit_ratio: golden=0.7 actual=missing",
        "systems.flower.metrics.fraction_server_miss: golden=missing actual=0.0",
    ]


def test_sweep_rows_reach_cells_axes_and_the_per_cell_digest():
    changed = sweep_digest(cell_digest="abd", seed=43)
    changed["axes"][0]["values"] = [[7]]
    assert compare_digests(sweep_digest(), changed) == [
        "axes[0].values[0][0]: golden=5 actual=7",
        "cells[0].seed: golden=42 actual=43",
        "cells[0].digest: golden='abc' actual='abd'",
    ]


def test_a_dropped_cell_is_missing_leaf_by_leaf():
    grown = sweep_digest()
    grown["cells"].append(copy.deepcopy(grown["cells"][0]))
    rows = differing_leaves(sweep_digest(), grown)
    assert rows and all(path.startswith("cells[1].") for path, _, _ in rows)
    assert all(left is MISSING for _, left, _ in rows)


def test_a_leaf_that_becomes_a_container_is_missing_on_both_sides():
    assert differing_leaves({"a": 1}, {"a": {"b": 1}}) == [
        ("a", 1, MISSING),
        ("a.b", MISSING, 1),
    ]


def test_an_emptied_container_is_a_leaf_of_its_own():
    assert differing_leaves({"a": [1, 2]}, {"a": []}) == [
        ("a[0]", 1, MISSING),
        ("a[1]", 2, MISSING),
        ("a", MISSING, []),
    ]
