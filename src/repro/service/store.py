"""Content-addressed result store for sweeps and the simulation service.

The same ``(workload, topology, faults, routing, placement)`` cell at the
same ``(endpoints, fidelity, seed)`` globals simulates to the identical
record every time, so each result is persisted once under its *content
address* — the SHA-256 of the canonical cell fingerprint
(:meth:`repro.sweep.plan.SweepCell.fingerprint`, which folds in the
engine version) plus the plan globals — and repeats are answered from
disk without simulating.  ``repro serve`` answers from it, and a sweep's
``--checkpoint DIR`` is the same store: a ``fig4`` run warms the service
and the service warms a resumed sweep.

Durability:

* one JSON file per record, fanned into 256 two-hex-digit
  subdirectories so a million-record store never puts a million entries
  in one directory;
* writes go to a process-unique temp file and land via :func:`os.replace`
  — readers (including a concurrent broker sharing the directory) never
  observe a half-written record, and two writers racing on one digest
  both leave a complete record behind;
* a corrupt, truncated, or foreign record degrades to a *miss* plus a
  :class:`ResultStoreWarning` (the file is removed and the cell is
  simply re-simulated) — a damaged store can cost time, never
  correctness;
* failed sweep cells (``keep_going``) are kept apart in the
  ``failures/`` sidecar, one typed error document per digest, written the
  same atomic way.  Nothing answers from it: a resumed sweep retries
  those cells, and a later success for the digest clears its entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from pathlib import Path

from repro.errors import ConfigError, ServiceError

__all__ = ["RESULT_FIELDS", "RESULT_SCHEMA_VERSION", "ResultStore",
           "ResultStoreWarning", "content_digest", "validate_store_record"]

#: Schema tag of every persisted result record.
RESULT_SCHEMA_VERSION = "repro-service-result-v1"

#: Fields every stored cell record (the sweep runner's result document)
#: must carry.
RESULT_FIELDS = frozenset({
    "workload", "topology", "family", "makespan", "num_flows", "events",
    "reallocations", "wall_seconds",
})


class ResultStoreWarning(UserWarning):
    """A stored result record could not be read back.

    The record is dropped and its cell re-simulated — results are
    unaffected.
    """


def content_digest(fingerprint: dict, meta: dict) -> str:
    """The store key: SHA-256 over the canonical JSON of (cell, globals).

    ``fingerprint`` is :meth:`SweepCell.fingerprint` (which already
    carries the engine version); ``meta`` is :meth:`SweepPlan.meta` —
    endpoints, fidelity, seed.  Canonical form (sorted keys, no
    whitespace) makes the digest independent of dict ordering.
    """
    payload = json.dumps({"fingerprint": fingerprint, "meta": meta},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def validate_store_record(doc: dict) -> None:
    """Raise :class:`~repro.errors.ServiceError` unless ``doc`` is a valid
    store record (schema tag, digest, fingerprint, meta, result body)."""
    if not isinstance(doc, dict):
        raise ServiceError(
            f"store record must be a dict, got {type(doc).__name__}")
    if doc.get("schema") != RESULT_SCHEMA_VERSION:
        raise ServiceError(
            f"unknown store-record schema {doc.get('schema')!r}; "
            f"expected {RESULT_SCHEMA_VERSION!r}")
    if not isinstance(doc.get("digest"), str) or len(doc["digest"]) != 64:
        raise ServiceError("store record digest must be a sha256 hex string")
    for field in ("fingerprint", "meta", "record"):
        if not isinstance(doc.get(field), dict):
            raise ServiceError(f"store record {field!r} must be a dict")
    if "engine" not in doc["fingerprint"]:
        raise ServiceError(
            "store record fingerprint carries no engine version")
    if "error" in doc["record"]:
        raise ServiceError(
            "error records are never stored (failures may be transient)")
    missing = RESULT_FIELDS - doc["record"].keys()
    if missing:
        raise ServiceError(
            f"store record result body missing fields: {sorted(missing)}")


class ResultStore:
    """One directory of content-addressed, schema-versioned results.

    Safe for concurrent use by multiple broker processes pointed at the
    same directory: every write is atomic, identical digests hold
    identical payloads (wall-clock fields aside), and readers tolerate —
    and clean up — any torn state a crashed predecessor left behind.
    """

    #: Age (seconds) past which an orphaned ``*.tmp`` is swept at open.
    #: Generous against any live writer: an in-flight put holds its temp
    #: file for milliseconds, not minutes.
    TMP_STALE_S = 300.0

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise ConfigError(
                f"result store path {self.root} is not a directory "
                f"(service stores and sweep checkpoints are directories "
                f"of records)") from None
        self.stats = {"hits": 0, "misses": 0, "puts": 0, "corrupt": 0,
                      "swept": 0}
        self.stats["swept"] = self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> int:
        """Remove temp files a crashed writer left behind; return count.

        Only files older than :data:`TMP_STALE_S` go — a concurrent
        broker's in-flight write (same fanout directory, younger file)
        is left for its own ``os.replace`` to consume.
        """
        cutoff = time.time() - self.TMP_STALE_S
        swept = 0
        for tmp in self.root.glob("*/*.tmp"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    os.remove(tmp)
                    swept += 1
            except OSError:
                pass  # raced another sweeper or the owning writer
        return swept

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def _failure_path(self, digest: str) -> Path:
        return self.root / "failures" / f"{digest}.json"

    @staticmethod
    def _write_atomic(path: Path, doc: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        with tmp.open("w") as fh:
            fh.write(json.dumps(doc) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    # ------------------------------------------------------------------ read
    def get(self, digest: str) -> dict | None:
        """The stored record for a digest, or ``None`` (counted as a miss).

        An unreadable record warns, is removed, and reads as a miss — the
        broker then re-simulates and re-stores the cell.
        """
        path = self._path(digest)
        try:
            text = path.read_text()
        except FileNotFoundError:
            self.stats["misses"] += 1
            return None
        try:
            doc = json.loads(text)
            validate_store_record(doc)
            if doc["digest"] != digest:
                raise ServiceError(
                    f"record stored under {digest[:12]} claims digest "
                    f"{doc['digest'][:12]}")
        except (json.JSONDecodeError, ServiceError) as exc:
            warnings.warn(
                f"result record {path.name} is unreadable ({exc}); the "
                f"cell will be re-simulated", ResultStoreWarning,
                stacklevel=2)
            self.stats["corrupt"] += 1
            try:
                os.remove(path)
            except OSError:
                pass
            self.stats["misses"] += 1
            return None
        self.stats["hits"] += 1
        return doc

    def __contains__(self, digest: str) -> bool:
        return self._path(digest).exists()

    def digests(self) -> list[str]:
        """Every digest currently in the store, sorted."""
        return sorted(p.stem for p in self.root.glob("??/*.json"))

    def __len__(self) -> int:
        return len(self.digests())

    # ----------------------------------------------------------------- write
    def put(self, digest: str, fingerprint: dict, meta: dict,
            record: dict) -> dict:
        """Persist one simulated cell record atomically and return the doc.

        Last-writer-wins on a digest race is harmless: both writers hold
        the same simulation output (modulo wall-clock), and the
        process-unique temp name keeps their in-flight writes apart.
        """
        doc = {
            "schema": RESULT_SCHEMA_VERSION,
            "digest": digest,
            "fingerprint": fingerprint,
            "meta": meta,
            "record": record,
        }
        validate_store_record(doc)
        self._write_atomic(self._path(digest), doc)
        self._failure_path(digest).unlink(missing_ok=True)
        self.stats["puts"] += 1
        return doc

    # ------------------------------------------------------- failure sidecar
    def put_failure(self, digest: str, error_doc: dict) -> None:
        """Record a failed cell's typed error document for ``digest``."""
        self._write_atomic(self._failure_path(digest), error_doc)

    def failures(self) -> dict[str, dict]:
        """Recorded failures by digest; unreadable entries are skipped
        (a failed cell is retried whether or not its entry survives)."""
        found = {}
        for path in sorted(self.root.glob("failures/*.json")):
            try:
                doc = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if isinstance(doc, dict) and "error" in doc:
                found[path.stem] = doc
        return found
