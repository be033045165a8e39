"""On-disk content-addressed run store for the ``repro serve`` service.

Every completed job persists as a *bundle directory* keyed by the canonical
SHA-256 digest of its request (the same canonical-JSON + ``sha256`` scheme
the sweep engine uses for per-cell digests — see
:func:`repro.service.store.request_digest` and
:mod:`repro.sweeps.engine`).  Layout::

    <root>/index.json                   # digest -> {bytes, seq, kind, meta}
    <root>/runs/<digest>/digest.json    # the golden-rounded result document
    <root>/runs/<digest>/result.json    # full-precision result (byte witness)
    <root>/runs/<digest>/series.csv     # flattened metric series
    <root>/runs/<digest>/summary.md     # headline markdown table

Scenario bundles are written through
:func:`repro.scenarios.artifacts.run_documents`, so a stored run is
byte-for-byte the layout ``repro scenarios run NAME --out DIR`` exports.

Durability invariants:

* **atomic writes** — a bundle is staged under ``tmp/`` and published with a
  single ``os.replace``; the index is rewritten through a tmp file the same
  way.  A crash can leave stale staging files but never a half-visible run.
* **crash recovery** — on open, leftover staging files are deleted, index
  entries whose bundle directory vanished are dropped, and orphan bundle
  directories not in the index are adopted (re-measured and re-indexed).
* **LRU eviction** — the index carries a logical access sequence (no wall
  clock; the store is deterministic given its call sequence).  When
  ``max_bytes`` is set, publishing a bundle evicts least-recently-used
  entries until the store fits.  Serving a bundle (:meth:`RunStore.touch`,
  :meth:`RunStore.read_document`) bumps its sequence in memory only; the
  index file catches up at the next ``put`` / ``remove`` / :meth:`RunStore.flush`,
  so a crash can lose recency, never a bundle.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from threading import RLock
from typing import Dict, List, Optional

__all__ = ["StoredRun", "RunStore", "request_digest"]

_INDEX_FILENAME = "index.json"
_RUNS_DIRNAME = "runs"
_TMP_DIRNAME = "tmp"
_HEX_DIGEST_LENGTH = 64


def request_digest(payload: Dict[str, object]) -> str:
    """SHA-256 of the canonical JSON of a request payload.

    The store's addressing scheme — identical submissions produce identical
    digests, which is what request-level dedup/caching keys on.  Matches the
    per-cell digest scheme of :mod:`repro.sweeps.engine` (canonical
    ``json.dumps(..., sort_keys=True)`` hashed with SHA-256).
    """
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class StoredRun:
    """One stored bundle: its digest, byte size and caller-provided metadata."""

    digest: str
    bytes: int
    kind: str
    meta: Dict[str, object] = field(default_factory=dict)


class RunStore:
    """Thread-safe content-addressed bundle store with LRU eviction."""

    def __init__(self, root: Path, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive or None")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self._lock = RLock()
        self._seq = 0
        self._entries: Dict[str, StoredRun] = {}
        self._access: Dict[str, int] = {}
        #: access sequences bumped in memory since the index was last written
        self._dirty = False
        #: bundles evicted over this store's lifetime (reported by /stats)
        self.evictions = 0
        self._open()

    # -- filesystem layout ---------------------------------------------------

    @property
    def _index_path(self) -> Path:
        return self.root / _INDEX_FILENAME

    def _runs_dir(self) -> Path:
        return self.root / _RUNS_DIRNAME

    def _tmp_dir(self) -> Path:
        return self.root / _TMP_DIRNAME

    def run_dir(self, digest: str) -> Path:
        """The bundle directory of one digest (exists only once published)."""
        _check_digest(digest)
        return self._runs_dir() / digest

    # -- opening and recovery ------------------------------------------------

    def _open(self) -> None:
        self._runs_dir().mkdir(parents=True, exist_ok=True)
        # Staged-but-unpublished bundles and index tmp files from a crashed
        # process are garbage by definition: publishing is a single rename.
        tmp_dir = self._tmp_dir()
        if tmp_dir.exists():
            shutil.rmtree(tmp_dir)
        tmp_dir.mkdir(parents=True, exist_ok=True)
        document: Dict[str, object] = {}
        if self._index_path.exists():
            try:
                document = json.loads(self._index_path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, OSError):
                document = {}
        raw_entries = document.get("entries", {})
        raw_seq = document.get("seq", 0)
        self._seq = raw_seq if isinstance(raw_seq, int) else 0
        if isinstance(raw_entries, dict):
            for digest, entry in raw_entries.items():
                if not isinstance(entry, dict):
                    continue
                if not self.run_dir(digest).is_dir():
                    continue  # bundle vanished: drop the stale index entry
                self._entries[digest] = StoredRun(
                    digest=digest,
                    bytes=int(entry.get("bytes", 0)),
                    kind=str(entry.get("kind", "scenario")),
                    meta=dict(entry.get("meta", {})),
                )
                self._access[digest] = int(entry.get("seq", 0))
        # Adopt orphan bundles (published bundle, crash before index write).
        for path in sorted(self._runs_dir().iterdir()):
            digest = path.name
            if not path.is_dir() or digest in self._entries:
                continue
            if len(digest) != _HEX_DIGEST_LENGTH:
                continue
            self._seq += 1
            self._entries[digest] = StoredRun(
                digest=digest, bytes=_tree_bytes(path), kind="scenario", meta={}
            )
            self._access[digest] = self._seq
        self._write_index()

    # -- index persistence ---------------------------------------------------

    def _write_index(self) -> None:
        document = {
            "seq": self._seq,
            "entries": {
                digest: {
                    "bytes": entry.bytes,
                    "kind": entry.kind,
                    "meta": entry.meta,
                    "seq": self._access[digest],
                }
                for digest, entry in self._entries.items()
            },
        }
        tmp = self._tmp_dir() / _INDEX_FILENAME
        tmp.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        os.replace(tmp, self._index_path)
        self._dirty = False

    def flush(self) -> None:
        """Persist access sequences that :meth:`touch` bumped in memory."""
        with self._lock:
            if self._dirty:
                self._write_index()

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._entries

    def total_bytes(self) -> int:
        with self._lock:
            return sum(entry.bytes for entry in self._entries.values())

    def digests(self) -> List[str]:
        """All stored digests, least-recently-used first."""
        with self._lock:
            return sorted(self._entries, key=lambda digest: self._access[digest])

    def get(self, digest: str) -> Optional[StoredRun]:
        """The stored entry (bumping its LRU position), or ``None``."""
        with self._lock:
            if not self.touch(digest):
                return None
            self._write_index()
            return self._entries[digest]

    def touch(self, digest: str) -> bool:
        """Bump one entry's LRU position in memory (O(1), no index rewrite)."""
        with self._lock:
            if digest not in self._entries:
                return False
            self._seq += 1
            self._access[digest] = self._seq
            self._dirty = True
            return True

    def read_document(self, digest: str, filename: str) -> str:
        """One file of a stored bundle (``KeyError`` when absent); a served
        bundle is a recently used one."""
        if "/" in filename or "\\" in filename or filename.startswith("."):
            raise KeyError(f"invalid bundle filename {filename!r}")
        with self._lock:
            if not self.touch(digest):
                raise KeyError(f"no stored run for digest {digest!r}")
            # An indexed digest names a directory under runs/ (checked at
            # publication or listed at open): one open, no path objects, no stat.
            path = os.path.join(self.root, _RUNS_DIRNAME, digest, filename)
            try:
                with open(path, encoding="utf-8") as document:
                    return document.read()
            except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
                raise KeyError(
                    f"stored run {digest!r} has no document {filename!r}"
                ) from None

    # -- writes --------------------------------------------------------------

    def put(
        self,
        digest: str,
        documents: Dict[str, str],
        kind: str = "scenario",
        meta: Optional[Dict[str, object]] = None,
    ) -> StoredRun:
        """Publish a bundle atomically; idempotent for an existing digest."""
        _check_digest(digest)
        if not documents:
            raise ValueError("a bundle must contain at least one document")
        with self._lock:
            existing = self._entries.get(digest)
            if existing is not None:
                return existing
            staging = self._tmp_dir() / f"put-{digest}"
            if staging.exists():
                shutil.rmtree(staging)
            try:
                staging.mkdir(parents=True)
                written = 0
                for filename, text in documents.items():
                    if "/" in filename or "\\" in filename:
                        raise ValueError(f"invalid bundle filename {filename!r}")
                    written += (staging / filename).write_bytes(text.encode("utf-8"))
                os.replace(staging, self.run_dir(digest))
            except BaseException:
                # A bundle that could not be published leaves nothing staged.
                shutil.rmtree(staging, ignore_errors=True)
                raise
            self._seq += 1
            entry = StoredRun(
                digest=digest,
                bytes=written,
                kind=kind,
                meta=dict(meta or {}),
            )
            self._entries[digest] = entry
            self._access[digest] = self._seq
            self._evict_locked(keep=digest)
            self._write_index()
            return entry

    def remove(self, digest: str) -> bool:
        """Delete one bundle (used by eviction and tests); True if present."""
        with self._lock:
            if digest not in self._entries:
                return False
            self._delete_locked(digest)
            self._write_index()
            return True

    def _delete_locked(self, digest: str) -> None:
        path = self.run_dir(digest)
        if path.exists():
            shutil.rmtree(path)
        del self._entries[digest]
        del self._access[digest]

    def _evict_locked(self, keep: str) -> None:
        if self.max_bytes is None:
            return
        total = sum(entry.bytes for entry in self._entries.values())
        for digest in sorted(self._entries, key=lambda d: self._access[d]):
            if total <= self.max_bytes:
                break
            if digest == keep:
                continue  # never evict the bundle being published
            total -= self._entries[digest].bytes
            self._delete_locked(digest)
            self.evictions += 1


def _check_digest(digest: str) -> None:
    if len(digest) != _HEX_DIGEST_LENGTH or not all(
        character in "0123456789abcdef" for character in digest
    ):
        raise ValueError(f"not a canonical sha256 hex digest: {digest!r}")


def _tree_bytes(path: Path) -> int:
    return sum(file.stat().st_size for file in path.rglob("*") if file.is_file())
