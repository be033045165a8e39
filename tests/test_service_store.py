"""Unit tests for the on-disk content-addressed run store.

Covers the durability invariants :mod:`repro.service.store` promises:
atomic publication (tmp + rename), crash recovery on open (stale staging
cleanup, dropped dangling index entries, orphan-bundle adoption) and LRU
eviction under a byte budget — including that *serving* a bundle through the
service counts as using it.
"""

from __future__ import annotations

import json
import shutil
import threading
import urllib.request
from pathlib import Path

import pytest

from repro.service import JobManager, ReproService, ServiceConfig
from repro.service.store import RunStore, _tree_bytes, request_digest

DOCS = {"digest.json": '{"a": 1}\n', "result.json": '{"b": 2}\n'}


def digest_of(tag: str) -> str:
    return request_digest({"tag": tag})


@pytest.fixture
def store(tmp_path: Path) -> RunStore:
    return RunStore(tmp_path / "store")


class TestRequestDigest:
    def test_is_canonical_sha256_hex(self) -> None:
        digest = request_digest({"kind": "scenario", "seed": 42})
        assert len(digest) == 64
        assert all(character in "0123456789abcdef" for character in digest)

    def test_key_order_does_not_matter(self) -> None:
        assert request_digest({"a": 1, "b": 2}) == request_digest({"b": 2, "a": 1})

    def test_distinct_payloads_distinct_digests(self) -> None:
        assert request_digest({"seed": 1}) != request_digest({"seed": 2})

    def test_matches_sweep_engine_scheme(self) -> None:
        # The store must address with the exact canonical-JSON + sha256
        # scheme the sweep engine uses for per-cell digests.
        import hashlib

        payload = {"kind": "scenario", "seed": 7, "scale": 0.25}
        blob = json.dumps(payload, sort_keys=True)
        assert request_digest(payload) == hashlib.sha256(
            blob.encode("utf-8")
        ).hexdigest()


class TestPutGet:
    def test_roundtrip(self, store: RunStore) -> None:
        digest = digest_of("run-1")
        entry = store.put(digest, DOCS, kind="scenario", meta={"label": "x"})
        assert entry.digest == digest
        assert entry.bytes == sum(len(text) for text in DOCS.values())
        assert digest in store
        assert len(store) == 1
        assert store.read_document(digest, "digest.json") == DOCS["digest.json"]

    def test_stored_bytes_equal_the_tree_on_disk(self, store: RunStore) -> None:
        # put() sums what it encoded instead of walking the bundle; multi-byte
        # text is where a character count and a byte count part ways.
        documents = {"digest.json": '{"π": "é…"}\n', "summary.md": "# ünïcode ✓\n", "e": ""}
        entry = store.put(digest_of("unicode"), documents)
        assert entry.bytes == _tree_bytes(store.run_dir(entry.digest))
        assert entry.bytes == sum(len(text.encode("utf-8")) for text in documents.values())
        assert entry.bytes > sum(len(text) for text in documents.values())
        assert store.total_bytes() == entry.bytes

    def test_put_is_idempotent(self, store: RunStore) -> None:
        digest = digest_of("run-1")
        first = store.put(digest, DOCS)
        second = store.put(digest, {"digest.json": "different\n"})
        assert second is first
        assert store.read_document(digest, "digest.json") == DOCS["digest.json"]

    def test_rejects_non_digest_keys(self, store: RunStore) -> None:
        with pytest.raises(ValueError):
            store.put("not-a-digest", DOCS)
        with pytest.raises(ValueError):
            store.put("A" * 64, DOCS)  # uppercase: not canonical hex

    def test_rejects_empty_bundles_and_bad_filenames(self, store: RunStore) -> None:
        with pytest.raises(ValueError):
            store.put(digest_of("x"), {})
        with pytest.raises(ValueError):
            store.put(digest_of("x"), {"../escape": "nope"})

    def test_read_document_rejects_traversal(self, store: RunStore) -> None:
        digest = digest_of("run-1")
        store.put(digest, DOCS)
        for name in ("../index.json", "..\\index.json", ".hidden"):
            with pytest.raises(KeyError):
                store.read_document(digest, name)

    def test_read_unknown_digest_raises(self, store: RunStore) -> None:
        with pytest.raises(KeyError):
            store.read_document(digest_of("missing"), "digest.json")

    def test_read_a_document_the_bundle_lacks_raises_and_still_counts_as_a_use(
        self, store: RunStore
    ) -> None:
        first, second = digest_of("run-1"), digest_of("run-2")
        store.put(first, DOCS)
        store.put(second, DOCS)
        (store.run_dir(first) / "nested").mkdir()
        for name in ("series.csv", "nested"):
            with pytest.raises(KeyError, match=f"has no document '{name}'"):
                store.read_document(first, name)
        assert store.digests() == [second, first]
        assert store.read_document(first, "digest.json") == DOCS["digest.json"]

    def test_remove(self, store: RunStore) -> None:
        digest = digest_of("run-1")
        store.put(digest, DOCS)
        assert store.remove(digest)
        assert digest not in store
        assert not store.remove(digest)
        assert not store.run_dir(digest).exists()


class TestAtomicity:
    def test_no_staging_residue_after_put(self, store: RunStore) -> None:
        store.put(digest_of("run-1"), DOCS)
        assert list((store.root / "tmp").iterdir()) == []

    def test_no_staging_residue_after_a_put_that_failed(self, store: RunStore) -> None:
        digest = digest_of("run-1")
        with pytest.raises(ValueError):  # the first document is staged by then
            store.put(digest, {"digest.json": "{}\n", "no/such": "x"})
        assert list((store.root / "tmp").iterdir()) == []
        assert digest not in store and not store.run_dir(digest).exists()
        assert store.put(digest, DOCS).bytes == sum(len(text) for text in DOCS.values())

    def test_bundle_published_as_one_directory(self, store: RunStore) -> None:
        digest = digest_of("run-1")
        store.put(digest, DOCS)
        assert sorted(
            path.name for path in store.run_dir(digest).iterdir()
        ) == sorted(DOCS)

    def test_index_survives_put(self, store: RunStore) -> None:
        store.put(digest_of("run-1"), DOCS)
        document = json.loads((store.root / "index.json").read_text())
        assert digest_of("run-1") in document["entries"]


class TestCrashRecovery:
    def test_stale_staging_is_cleaned_on_open(self, tmp_path: Path) -> None:
        root = tmp_path / "store"
        store = RunStore(root)
        store.put(digest_of("run-1"), DOCS)
        # Simulate a crash mid-publication: a staged bundle under tmp/.
        staging = root / "tmp" / f"put-{digest_of('half')}"
        staging.mkdir(parents=True)
        (staging / "digest.json").write_text("partial")
        reopened = RunStore(root)
        assert list((root / "tmp").iterdir()) == []
        assert digest_of("run-1") in reopened
        assert digest_of("half") not in reopened

    def test_dangling_index_entry_is_dropped(self, tmp_path: Path) -> None:
        root = tmp_path / "store"
        store = RunStore(root)
        store.put(digest_of("run-1"), DOCS)
        store.put(digest_of("run-2"), DOCS)
        # Simulate a crash between bundle deletion and index rewrite.
        shutil.rmtree(store.run_dir(digest_of("run-1")))
        reopened = RunStore(root)
        assert digest_of("run-1") not in reopened
        assert digest_of("run-2") in reopened
        assert len(reopened) == 1

    def test_orphan_bundle_is_adopted(self, tmp_path: Path) -> None:
        root = tmp_path / "store"
        store = RunStore(root)
        store.put(digest_of("run-1"), DOCS)
        # Simulate a crash between bundle publication and index rewrite.
        orphan = digest_of("orphan")
        orphan_dir = root / "runs" / orphan
        orphan_dir.mkdir()
        (orphan_dir / "digest.json").write_text(DOCS["digest.json"])
        reopened = RunStore(root)
        assert orphan in reopened
        assert reopened.read_document(orphan, "digest.json") == DOCS["digest.json"]

    def test_corrupt_index_is_rebuilt_from_bundles(self, tmp_path: Path) -> None:
        root = tmp_path / "store"
        store = RunStore(root)
        store.put(digest_of("run-1"), DOCS)
        (root / "index.json").write_text("{ not json")
        reopened = RunStore(root)
        assert digest_of("run-1") in reopened
        assert reopened.read_document(
            digest_of("run-1"), "digest.json"
        ) == DOCS["digest.json"]


class TestEviction:
    def bundle(self, size: int) -> dict:
        return {"digest.json": "x" * size}

    def test_lru_eviction_under_byte_budget(self, tmp_path: Path) -> None:
        store = RunStore(tmp_path / "store", max_bytes=250)
        for tag in ("a", "b", "c"):
            store.put(digest_of(tag), self.bundle(100))
        assert len(store) == 2
        assert store.evictions == 1
        assert digest_of("a") not in store  # oldest goes first
        assert digest_of("c") in store
        assert store.total_bytes() <= 250

    def test_get_refreshes_lru_position(self, tmp_path: Path) -> None:
        store = RunStore(tmp_path / "store", max_bytes=250)
        store.put(digest_of("a"), self.bundle(100))
        store.put(digest_of("b"), self.bundle(100))
        assert store.get(digest_of("a")) is not None  # touch: b is now LRU
        store.put(digest_of("c"), self.bundle(100))
        assert digest_of("a") in store
        assert digest_of("b") not in store

    def test_never_evicts_the_bundle_being_published(self, tmp_path: Path) -> None:
        store = RunStore(tmp_path / "store", max_bytes=50)
        store.put(digest_of("big"), self.bundle(100))
        assert digest_of("big") in store  # over budget, but never self-evicted
        store.put(digest_of("next"), self.bundle(100))
        assert digest_of("big") not in store
        assert digest_of("next") in store

    def test_eviction_removes_bundle_directories(self, tmp_path: Path) -> None:
        store = RunStore(tmp_path / "store", max_bytes=150)
        store.put(digest_of("a"), self.bundle(100))
        store.put(digest_of("b"), self.bundle(100))
        assert not store.run_dir(digest_of("a")).exists()

    def test_lru_order_survives_reopen(self, tmp_path: Path) -> None:
        root = tmp_path / "store"
        store = RunStore(root, max_bytes=None)
        for tag in ("a", "b", "c"):
            store.put(digest_of(tag), self.bundle(10))
        store.get(digest_of("a"))
        reopened = RunStore(root, max_bytes=None)
        assert reopened.digests() == [digest_of("b"), digest_of("c"), digest_of("a")]

    def test_invalid_max_bytes_rejected(self, tmp_path: Path) -> None:
        with pytest.raises(ValueError):
            RunStore(tmp_path / "store", max_bytes=0)

    def test_touch_bumps_in_memory_and_persists_at_the_next_write(
        self, tmp_path: Path
    ) -> None:
        root = tmp_path / "store"
        store = RunStore(root)
        for tag in ("a", "b", "c"):
            store.put(digest_of(tag), self.bundle(10))
        index_before = (root / "index.json").read_bytes()
        assert store.touch(digest_of("a")) is True
        assert store.touch(digest_of("missing")) is False
        store.read_document(digest_of("b"), "digest.json")  # a read is a use
        assert store.digests() == [digest_of("c"), digest_of("a"), digest_of("b")]
        assert (root / "index.json").read_bytes() == index_before  # no rewrite per touch
        store.flush()
        assert RunStore(root).digests() == store.digests()
        store.touch(digest_of("c"))
        store.put(digest_of("d"), self.bundle(10))  # any index write carries the bumps
        assert RunStore(root).digests() == [
            digest_of(tag) for tag in ("a", "b", "c", "d")
        ]


class TestServedBundlesAreRecentlyUsed:
    """`--store-max-bytes` evicts by *use*: a store hit or a result read is one."""

    DOCS = {"digest.json": "x" * 100}

    def service(self, tmp_path: Path) -> ReproService:
        config = ServiceConfig(
            port=0, workers=1, store_dir=tmp_path / "store", store_max_bytes=250,
            timeout_s=None,
        )
        service = ReproService(config, executor=lambda _payload, _execution: self.DOCS)
        service.start()
        return service

    @staticmethod
    def run(manager: JobManager, tag: str) -> str:
        job, _ = manager.submit({"kind": "scenario", "tag": tag}, label=tag)
        for _ in range(2000):
            if job.state == "done":
                return job.digest
            threading.Event().wait(0.005)
        raise AssertionError(f"job {tag} never finished")

    def test_a_reserved_bundle_outlives_a_newer_unserved_one(self, tmp_path: Path) -> None:
        service = self.service(tmp_path)
        try:
            old = self.run(service.manager, "old")
            newer = self.run(service.manager, "newer")
            with urllib.request.urlopen(  # serve the old one again: a result read
                f"{service.url}/runs/{old[:16]}/result", timeout=10
            ) as response:
                assert response.read() == self.DOCS["digest.json"].encode()
            assert service.store.digests() == [newer, old]
        finally:
            assert service.stop() is True  # a clean stop persists the order
        assert RunStore(tmp_path / "store").digests() == [newer, old]

        service = self.service(tmp_path)
        try:
            # The budget holds two bundles.  Publish-order FIFO would evict
            # "old" here; it was served since, so the never-served one goes.
            third = self.run(service.manager, "third")
            assert service.store.digests() == [old, third]
            # A store-hit submission reads nothing, and is a use all the same.
            job, cached = service.manager.submit(
                {"kind": "scenario", "tag": "old"}, label="old"
            )
            assert cached is True and job.digest == old
            fourth = self.run(service.manager, "fourth")
            assert service.store.digests() == [old, fourth]
            assert service.store.evictions == 2
        finally:
            service.stop()
