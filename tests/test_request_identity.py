"""A repeated request costs a lookup — and answers exactly what it always did.

``canonical_scenario_payload`` remembers the scaled spec document per (spec
object, scale), ``ScenarioSpec.to_dict`` builds its dictionary without
``dataclasses.asdict`` and the model registries keep each factory's signature.
None of that may move a byte: the **parent's algorithm is kept here as the
reference** (``asdict``-based ``to_dict``, a spec re-scaled per request, a
fresh ``json.dumps(sort_keys=True)`` per digest) and everything the service
derives from a request — payload, digest, run id, response bytes, stored
documents — is compared against it or against text the parent commit wrote:

* ``tests/data/service_wire_pins.json`` — the exchanges of
  :func:`wire_transcript` recorded from the parent's tree
  (``PYTHONPATH=<parent>/src python tests/test_request_identity.py --record``);
* ``tests/data/parent_run_store/`` — a run store the parent's ``JobManager``
  published ``paper-default`` (seed 42, scale 0.25) into.
"""

from __future__ import annotations

import dataclasses
import hashlib
import http.client
import inspect
import json
import shutil
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.artifacts import DIGEST_FILENAME
from repro.scenarios.library import (
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario_names,
    unregister_scenario,
)
from repro.scenarios.models import ModelRef
from repro.scenarios.program import WorkloadPhase
from repro.scenarios.spec import ChurnProfile, ScenarioSpec
from repro.service import (
    DONE,
    RUNNING,
    ReproService,
    ServiceConfig,
    canonical_scenario_payload,
    execute_request,
    request_digest,
)

DATA = Path(__file__).parent / "data"
WIRE_PINS = DATA / "service_wire_pins.json"
PARENT_STORE = DATA / "parent_run_store"

SCALES = (None, 1, 1.0, 0.25, 0.5)
SEEDS = (None, 0, 42, 2**31)
SHARDS = (None, 1, 2)


# -- the parent's algorithm, kept as the reference ------------------------------


def reference_to_dict(spec: ScenarioSpec) -> Dict[str, object]:
    data = dataclasses.asdict(spec)
    data["systems"] = list(spec.systems)
    data["locality_weights"] = list(spec.locality_weights)
    data["program"] = [phase.to_dict() for phase in spec.program]
    data["churn_model"] = spec.churn_model.to_dict()
    data["fault_model"] = spec.fault_model.to_dict()
    return data


def reference_payload(
    spec: ScenarioSpec, seed: Any = None, scale: Any = 1.0, shards: Any = None
) -> Dict[str, object]:
    if scale <= 0:
        raise ValueError("scale must be positive")
    if scale != 1.0:
        spec = spec.scaled(scale)
    resolved_shards = spec.shards if shards is None else shards
    if resolved_shards < 1:
        raise ValueError("shards must be >= 1")
    return {
        "kind": "scenario",
        "spec": reference_to_dict(spec),
        "seed": spec.seed if seed is None else int(seed),
        "scale": scale,
        "shards": resolved_shards,
    }


def reference_digest(payload: Dict[str, object]) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def outcome(build: Callable[[], Dict[str, object]]) -> Tuple[str, object]:
    """A payload as the JSON a digest is taken over (types and key order
    included), or the error it failed with."""
    try:
        return "payload", json.dumps(build())
    except (TypeError, ValueError) as error:
        return "error", (type(error), str(error))


def assert_same_identity(spec: ScenarioSpec, seed: Any, scale: Any, shards: Any) -> None:
    expected = outcome(lambda: reference_payload(spec, seed, scale, shards))
    for touch in ("first", "repeated"):
        assert outcome(lambda: canonical_scenario_payload(spec, seed, scale, shards)) == (
            expected
        ), (touch, spec.name, seed, scale, shards)
    if expected[0] == "payload":
        payload = canonical_scenario_payload(spec, seed, scale, shards)
        assert payload == reference_payload(spec, seed, scale, shards)
        assert request_digest(payload) == reference_digest(json.loads(str(expected[1])))
        # What benchmarks/e2e does: a shallow copy with one more key.
        probe = {**payload, "probe": 1}
        assert request_digest(probe) == reference_digest(probe)


# -- hypothesis: specs that exercise every nested shape -------------------------

CHURN_MODELS = (
    ModelRef("poisson"),
    ModelRef("none"),
    ModelRef.of("poisson", tick_period_s=30.0),
    ModelRef.of("burst", period_s=600.0, burst_size=2),
)
FAULT_MODELS = (
    ModelRef("none"),
    ModelRef.of("gossip-loss", drop_probability=0.25),
    ModelRef.of("locality-partition", localities=(0, 1), asymmetric=True),
    ModelRef.of("link-loss", drop_probability=0.1, kinds=("gossip", "keepalive")),
    ModelRef.of("correlated-locality", at_fraction=0.5, repeat_every_s=None),
)


@st.composite
def specs(draw: Callable[..., Any]) -> ScenarioSpec:
    def pick(*values: Any) -> Any:
        return draw(st.sampled_from(values))

    duration = pick(900, 900.0, 1800.0, 3600, 5400.5)
    localities = pick(2, 3, 4)
    squirrel = draw(st.booleans())
    phases = pick(0, 1, 2, 3)
    program = tuple(
        WorkloadPhase(
            duration_s=None if index == phases - 1 else duration / 4,
            rate_multiplier=pick(1.0, 2, 0.5),
            zipf_alpha=pick(None, 0.6, 1),
            hotspot_rotation=pick(0, 1, 3),
        )
        for index in range(phases)
    )
    rate = st.sampled_from((0.0, 0, 0.5, 2, 10.0))
    return ScenarioSpec(
        name=pick("inline", "x", "ünïcode ✓"),
        description=pick("", "a description"),
        num_hosts=pick(60, 90, 240),
        num_localities=localities,
        num_websites=pick(4, 6, 12),
        active_websites=pick(1, 2),
        objects_per_website=pick(20, 40, 100),
        max_content_overlay_size=pick(8, 10, 40),
        content_cache_capacity=pick(None, 10, 50),
        content_miss_fallback=pick("server", "directory"),
        query_rate_per_s=pick(0.5, 1, 2.0),
        zipf_alpha=pick(0.8, 1, 1.2),
        locality_weights=pick((), tuple(range(1, localities + 1)), (1.5,) * localities),
        program=program,
        gossip_period_s=pick(60.0, 300, 1800.0),
        gossip_length=pick(5, 10),
        view_size=pick(20, 50),
        push_threshold=pick(0.1, 0.5),
        keepalive_period_s=pick(None, 60.0, 120),
        churn=ChurnProfile() if squirrel else ChurnProfile(draw(rate), draw(rate), draw(rate)),
        churn_model=pick(*CHURN_MODELS[:2]) if squirrel else pick(*CHURN_MODELS),
        fault_model=FAULT_MODELS[0] if squirrel else pick(*FAULT_MODELS),
        duration_s=duration,
        metrics_window_s=pick(None, 300.0, 450),
        seed=pick(0, 42, 2**31),
        systems=("flower", "squirrel") if squirrel else ("flower",),
        warmup_fraction=pick(0.0, 0.25, 0.5),
        tier=pick("standard", "paper-scale"),
        queue_backend=pick("heap", "calendar"),
        dht_substrate=pick("chord", "pastry"),
        compact_metrics=draw(st.booleans()),
    )


# -- (a) identity ----------------------------------------------------------------


@pytest.mark.parametrize("name", scenario_names())
def test_registered_requests_keep_the_parents_payload_and_digest(name: str) -> None:
    spec = get_scenario(name)
    for scale in SCALES:
        for seed in SEEDS:
            for shards in SHARDS:
                assert_same_identity(spec, seed, scale, shards)


@pytest.mark.parametrize(
    "seed, scale, shards",
    [
        (3, 0, None),
        (3, -1.0, None),
        (3, float("nan"), None),
        (3, "0.5", None),
        (3, 0.25, 0),
        (3, 0.25, -2),
        ("not a seed", 0.25, None),
        ("not a seed", 0, 0),
    ],
)
def test_a_request_that_fails_fails_every_time_with_the_parents_message(
    seed: Any, scale: Any, shards: Any
) -> None:
    spec = get_scenario("paper-default")
    assert outcome(lambda: reference_payload(spec, seed, scale, shards))[0] == "error"
    assert_same_identity(spec, seed, scale, shards)


@settings(max_examples=60, deadline=None)
@given(
    spec=specs(),
    seed=st.sampled_from(SEEDS),
    scale=st.sampled_from((1, 1.0, 0.25, 0.5, 2, 2.0)),
    shards=st.sampled_from((None, 1)),
)
def test_inline_requests_keep_the_parents_payload_and_digest(
    spec: ScenarioSpec, seed: Any, scale: Any, shards: Any
) -> None:
    inline = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert_same_identity(inline, seed, scale, shards)
    # An equal spec that prints differently (900 == 900.0) is its own request.
    assert_same_identity(spec, seed, scale, shards)


def test_equal_specs_that_print_differently_do_not_share_a_document() -> None:
    base = {"name": "tiny", "num_hosts": 60, "duration_s": 900}
    as_int = ScenarioSpec.from_dict(base)
    as_float = ScenarioSpec.from_dict(dict(base, duration_s=900.0))
    assert as_int == as_float and hash(as_int) == hash(as_float)
    for order in ((as_int, as_float), (as_float, as_int)):
        for spec in order:
            for scale in (1.0, 2, 2.0):
                assert_same_identity(spec, 1, scale, None)
    assert request_digest(canonical_scenario_payload(as_int)) != request_digest(
        canonical_scenario_payload(as_float)
    )


# -- (b) ScenarioSpec.to_dict -----------------------------------------------------


def assert_same_document(spec: ScenarioSpec) -> None:
    document = spec.to_dict()
    assert document == reference_to_dict(spec)
    assert json.dumps(document) == json.dumps(reference_to_dict(spec))  # key order too
    assert ScenarioSpec.from_dict(document) == spec
    assert ScenarioSpec.from_dict(json.loads(json.dumps(document))) == spec
    # The caller owns every container in it.
    document["churn"]["content_failures_per_hour"] = -1.0  # type: ignore[index]
    document["systems"].append("nope")  # type: ignore[attr-defined]
    document["churn_model"]["params"]["x"] = 1  # type: ignore[index]
    assert spec.to_dict() == reference_to_dict(spec)


def test_to_dict_equals_the_asdict_reference_over_the_registry() -> None:
    for spec in iter_scenarios():
        assert_same_document(spec)
        assert_same_document(spec.scaled(0.25))


@settings(max_examples=100, deadline=None)
@given(spec=specs())
def test_to_dict_equals_the_asdict_reference(spec: ScenarioSpec) -> None:
    assert_same_document(spec)


def test_no_reflection_per_construction(monkeypatch: pytest.MonkeyPatch) -> None:
    spec = get_scenario("partition-heal-reconcile")
    dataclasses.replace(spec, seed=1)  # both of its factories are known now
    calls: List[object] = []
    real = inspect.signature
    monkeypatch.setattr(inspect, "signature", lambda *a, **k: calls.append(a) or real(*a, **k))
    for seed in range(5):
        dataclasses.replace(spec, seed=seed).scaled(0.5).to_dict()
    assert calls == []
    source = inspect.getsource(sys.modules[ScenarioSpec.__module__])
    assert "asdict" not in source


# -- (c) staleness ----------------------------------------------------------------

FIXED_DOCUMENTS = {DIGEST_FILENAME: '{\n  "fixed": true\n}\n', "result.json": "{}\n"}


def make_service(tmp_path: Path, executor: Any = None, **config: Any) -> ReproService:
    service = ReproService(
        ServiceConfig(port=0, store_dir=tmp_path / "store", timeout_s=None, **config),
        executor=executor,
        clock=lambda: 1000.0,
    )
    service.start()
    return service


def post_run(service: ReproService, body: Dict[str, object]) -> Tuple[int, Dict[str, Any]]:
    status, _headers, text = exchange(service.port, "POST", "/runs", body)
    return status, json.loads(text)


def wait_for(condition: Callable[[], bool], what: str, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s  # repro: allow(DET002)
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"  # repro: allow(DET002)
        time.sleep(0.005)


def test_a_reregistered_scenario_is_a_different_request(tmp_path: Path) -> None:
    first = dataclasses.replace(get_scenario("paper-default"), name="tmp-identity")
    second = dataclasses.replace(first, num_hosts=first.num_hosts + 60)
    service = make_service(tmp_path, executor=lambda _p, _e: FIXED_DOCUMENTS, workers=1)
    try:
        register_scenario(first)
        body: Dict[str, object] = {"scenario": "tmp-identity", "seed": 5, "scale": 0.25}
        status, submitted = post_run(service, body)
        assert status == 202
        assert submitted["digest"] == reference_digest(reference_payload(first, 5, 0.25))
        wait_for(lambda: service.manager.get(submitted["id"]).state == DONE, "the first run")
        assert post_run(service, body) == (200, dict(submitted, state=DONE, cached=True))

        register_scenario(second, overwrite=True)
        status, resubmitted = post_run(service, body)
        assert status == 202 and resubmitted["cached"] is False
        assert resubmitted["digest"] == reference_digest(reference_payload(second, 5, 0.25))
        assert resubmitted["id"] != submitted["id"]
        assert service.manager.stats()["cache"]["misses"] == 2

        unregister_scenario("tmp-identity")
        status, refused = post_run(service, body)
        assert status == 400 and "unknown scenario 'tmp-identity'" in refused["error"]
    finally:
        unregister_scenario("tmp-identity")
        service.stop(drain=False)


# -- (d) bounds, threads, and a document nobody writes to -------------------------


def test_the_memo_is_bounded() -> None:
    from repro.service.jobs import SPEC_DOCUMENT_MEMO_SIZE, _spec_document

    _spec_document.cache_clear()
    assert _spec_document.cache_info().maxsize == SPEC_DOCUMENT_MEMO_SIZE
    base = get_scenario("paper-default")
    kept = []  # alive on purpose: the bound must not lean on the collector
    for index in range(10 * SPEC_DOCUMENT_MEMO_SIZE):
        kept.append(dataclasses.replace(base, name=f"inline-{index}"))
        assert_same_identity(kept[-1], index, 0.25, None)
        assert _spec_document.cache_info().currsize <= SPEC_DOCUMENT_MEMO_SIZE
    assert _spec_document.cache_info().currsize == SPEC_DOCUMENT_MEMO_SIZE
    # Evicted long ago, still the same request.
    assert_same_identity(kept[0], 0, 0.25, None)


def test_threads_racing_the_first_touch_get_one_digest() -> None:
    """Eight threads, a bytecode-length switch interval, a memo of fresh and
    remembered specs churning underneath: every digest is the reference's."""
    raced = [dataclasses.replace(get_scenario("flash-crowd"), name=f"raced-{n}") for n in range(6)]
    expected = [reference_digest(reference_payload(spec, 9, 0.5)) for spec in raced]
    barrier = threading.Barrier(8)
    digests: List[List[str]] = []

    def touch() -> None:
        barrier.wait(timeout=30)
        mine = []
        for _ in range(20):
            for spec in raced:
                mine.append(request_digest(canonical_scenario_payload(spec, seed=9, scale=0.5)))
        digests.append(mine)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=touch) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert digests == [expected * 20] * 8


def test_nothing_writes_to_the_shared_spec_document(tmp_path: Path) -> None:
    spec = get_scenario("paper-default")
    expected = json.dumps(reference_to_dict(spec.scaled(0.25)), sort_keys=True)
    shared = canonical_scenario_payload(spec, scale=0.25)["spec"]
    service = make_service(tmp_path, workers=1)  # a real worker: the pipe hand-over
    try:
        body: Dict[str, object] = {"scenario": "paper-default", "seed": 3, "scale": 0.25}
        _status, submitted = post_run(service, body)
        job = service.manager.get(submitted["id"])
        assert job is not None and job.payload["spec"] is shared
        wait_for(lambda: job.state == DONE, "the job")
        run = f"/runs/{job.id}"
        _s, _h, payload_text = exchange(service.port, "GET", run + "/payload")
        assert json.loads(payload_text) == reference_payload(spec, 3, 0.25)
        _s, _h, served = exchange(service.port, "GET", run + "/result")
        assert post_run(service, body)[1]["cached"] is True
    finally:
        service.stop(drain=False)
    assert execute_request(job.payload)[DIGEST_FILENAME] == served  # in this process too
    assert json.dumps(shared, sort_keys=True) == expected
    assert canonical_scenario_payload(spec, scale=0.25)["spec"] is shared


# -- (e) the wire, pinned against the parent's text --------------------------------

WIRE_REQUEST: Dict[str, object] = {"scenario": "paper-default", "seed": 41007, "scale": 0.25}
KNOWN_MARKER = "{KNOWN_SCENARIOS}"

Exchange = Dict[str, object]


def exchange(
    port: int, method: str, path: str, body: Optional[Dict[str, object]] = None
) -> Tuple[int, Dict[str, str], str]:
    """One request on a fresh connection: status, headers (minus the two that
    name the moment and the interpreter), body text."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data is not None else {}
        connection.request(method, path, body=data, headers=headers)
        response = connection.getresponse()
        text = response.read().decode("utf-8")
        kept = {k: v for k, v in response.getheaders() if k not in ("Date", "Server")}
        return response.status, kept, text
    finally:
        connection.close()


def wire_transcript(tmp_path: Path) -> List[Exchange]:
    """The ``service-mixed`` request through its whole life, and every
    documented ``400`` — on a frozen clock, behind a job that holds the one
    worker so "queued" is a state and not a race."""
    release = threading.Event()

    def executor(payload: Dict[str, object], _execution: Dict[str, object]) -> Dict[str, str]:
        if payload["seed"] == 1:
            release.wait(timeout=30)
        return FIXED_DOCUMENTS

    service = make_service(tmp_path, executor=executor, workers=1)
    transcript: List[Exchange] = []

    def record(method: str, path: str, body: Optional[Dict[str, object]] = None) -> str:
        status, headers, text = exchange(service.port, method, path, body)
        text = text.replace(", ".join(scenario_names()), KNOWN_MARKER)
        transcript.append({
            "request": {"method": method, "path": path, "body": body},
            "response": {"status": status, "headers": headers, "body": text},
        })
        return text

    try:
        _status, blocker = post_run(service, dict(WIRE_REQUEST, seed=1))
        wait_for(lambda: service.manager.get(blocker["id"]).state == RUNNING, "the blocker")
        run = "/runs/" + json.loads(record("POST", "/runs", WIRE_REQUEST))["id"]
        record("POST", "/runs", dict(WIRE_REQUEST, shards=2))
        for path in (run, run + "/payload", run + "/result"):
            record("GET", path)
        release.set()
        wait_for(lambda: service.manager.get(run[len("/runs/"):]).state == DONE, "the run")
        for path in (run, run + "/result", run + "/payload"):
            record("GET", path)
        record("HEAD", run + "/result")
        record("POST", "/runs", WIRE_REQUEST)
        record("POST", "/runs", {"scenario": "no-such-scenario"})
        record("POST", "/runs", dict(WIRE_REQUEST, scale=0))
        record("POST", "/runs", dict(WIRE_REQUEST, scale=-0.5))
        record("POST", "/runs", dict(WIRE_REQUEST, shards=0))
        record("POST", "/runs", dict(WIRE_REQUEST, seed="7"))
        record("POST", "/runs", dict(WIRE_REQUEST, spec={"name": "both"}))
        record("POST", "/runs", {"seed": 1})
        record("POST", "/runs", {"spec": {"name": "inline", "no_such_field": 1}})
        record("POST", "/runs", {"spec": {"name": "inline", "fault_model": "no-such-model"}})
        record("POST", "/runs", {"spec": "paper-default"})
    finally:
        release.set()
        service.stop(drain=False)
    return transcript


def test_the_wire_is_the_parents_byte_for_byte(tmp_path: Path) -> None:
    pinned = json.loads(WIRE_PINS.read_text(encoding="utf-8"))
    transcript = wire_transcript(tmp_path)
    assert [entry["request"] for entry in transcript] == [entry["request"] for entry in pinned]
    for ours, theirs in zip(transcript, pinned):
        assert ours["response"] == theirs["response"], ours["request"]
    statuses = [entry["response"]["status"] for entry in transcript]  # type: ignore[index]
    assert statuses == [202, 202, 200, 200, 409, 200, 200, 200, 200, 200] + [400] * 10


def test_a_store_the_parent_wrote_answers_its_old_digests(tmp_path: Path) -> None:
    """Same digest for the same request, so an existing store is all hits —
    and a fresh execution publishes the four documents the parent published."""
    (digest,) = [path.name for path in (PARENT_STORE / "runs").iterdir()]
    body: Dict[str, object] = {"scenario": "paper-default", "seed": 42, "scale": 0.25}
    shutil.copytree(PARENT_STORE, tmp_path / "store")
    service = make_service(tmp_path, executor=lambda _p, _e: {}, workers=1)  # never called
    try:
        status, answer = post_run(service, body)
        assert (status, answer["cached"], answer["digest"]) == (200, True, digest)
        assert answer["id"] == digest[:16]
        _status, _headers, served = exchange(service.port, "GET", f"/runs/{answer['id']}/result")
        assert served == (PARENT_STORE / "runs" / digest / DIGEST_FILENAME).read_text("utf-8")
        cache = service.manager.stats()["cache"]
        assert (cache["store_hits"], cache["misses"]) == (1, 0)
    finally:
        service.stop(drain=False)
    payload = canonical_scenario_payload(get_scenario("paper-default"), seed=42, scale=0.25)
    documents = execute_request(payload)
    stored = {path.name: path.read_text("utf-8") for path in (PARENT_STORE / "runs" / digest).iterdir()}
    assert documents == stored


def _record() -> None:
    """Write both fixtures from whatever tree ``PYTHONPATH`` names (the parent's)."""
    import tempfile

    from repro.service import JobManager, RunStore

    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        transcript = wire_transcript(Path(scratch))
    WIRE_PINS.write_text(json.dumps(transcript, indent=2, sort_keys=True) + "\n", "utf-8")
    shutil.rmtree(PARENT_STORE, ignore_errors=True)
    manager = JobManager(RunStore(PARENT_STORE), workers=1, clock=lambda: 1000.0)
    try:
        payload = canonical_scenario_payload(get_scenario("paper-default"), seed=42, scale=0.25)
        job, _cached = manager.submit(payload, label="paper-default")
        wait_for(lambda: job.state == DONE, "the fixture run")
    finally:
        manager.shutdown()
    shutil.rmtree(PARENT_STORE / "tmp", ignore_errors=True)
    print(f"recorded {len(transcript)} exchanges and run {job.digest}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=<tree>/src python tests/test_request_identity.py --record")
    _record()
