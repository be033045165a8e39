"""``scripts/path_costs.py``: outside-in wrappers that must not move a byte.

The script is the per-path ledger of the protocol paths (miss path, join,
gossip tick) until the benchmark of record splits ``core.query_s`` /
``core.gossip_s`` itself.  It patches methods of the running program from
outside, so two things are pinned here: the wrapped run produces the very
documents of an unwrapped run (instrumentation is digest-neutral), and the
program is left as it was found.
"""

import gc
import importlib.util
import re
from pathlib import Path

import pytest

from repro.core.columns import ColumnarView
from repro.core.content_peer import ContentPeer
from repro.core.dring import DRing
from repro.core.maintenance import OverlayMaintenance
from repro.core.system import FlowerCDN

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "path_costs.py"


@pytest.fixture(scope="module")
def path_costs():
    spec = importlib.util.spec_from_file_location("path_costs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _calls(report: str, label: str) -> int:
    match = re.search(rf"^\s*{re.escape(label)}\s+(\d+)\s", report, re.MULTILINE)
    assert match, f"no row {label!r} in:\n{report}"
    return int(match.group(1))


def test_wrapped_run_is_digest_neutral_and_every_path_is_seen(path_costs, capsys):
    patched = [
        (FlowerCDN, "_content_peer_query"), (FlowerCDN, "_run_directory_flow"),
        (FlowerCDN, "_after_served"), (FlowerCDN, "_new_client_query"),
        (OverlayMaintenance, "_start_content_processes"), (FlowerCDN, "_initialize_view"),
        (OverlayMaintenance, "_gossip_tick"), (DRing, "resolve_directory"),
        (ContentPeer, "build_gossip_message"), (ColumnarView, "probe"),
    ]
    classes = {owner for owner, _ in patched} | {FlowerCDN}
    before = {owner: dict(vars(owner)) for owner in classes}
    callbacks = list(gc.callbacks)

    assert path_costs.main(["--scenario", "paper-default", "--check-digest"]) == 0

    report = capsys.readouterr().out
    assert "ok: wrapped == unwrapped (result.json, digest.json)" in report
    joins = _calls(report, "join (_new_client_query)")
    assert joins > 0
    assert _calls(report, "D-ring route") == _calls(report, "process starts") == joins
    assert _calls(report, "view seeding") == joins
    assert _calls(report, "gossip tick") > 0
    assert _calls(report, "build_gossip_message") > 0
    probes = _calls(report, "view probe")
    assert probes == _calls(report, "_after_served") > 0
    assert probes == sum(
        _calls(report, f"existing peer: {kind}")
        for kind in ("view hit", "directory hit", "server miss")
    )
    empty, rejected = map(int, re.search(
        r"found nothing: (\d+) of \d+ .*rejected by the union mask: (\d+)", report
    ).groups())
    assert 0 < rejected <= empty <= probes
    # The program is left as it was found: no class gained or lost a name.
    assert {owner: dict(vars(owner)) for owner in classes} == before
    assert gc.callbacks == callbacks


def test_one_target_is_required(path_costs):
    with pytest.raises(SystemExit):
        path_costs.main([])
