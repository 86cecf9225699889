"""Request broker: dedup, fair batching, and the simulation pipeline.

The broker is the heart of the service: it turns a stream of per-tenant
cell submissions into the *minimum* number of simulations.

* **Content dedup** — a submission whose digest is already in the store
  is answered from disk; one already in flight attaches to the existing
  future (one simulation, fanned-out answers).  Only genuinely novel
  cells reach the queue.
* **Fair batching** — queued cells drain through the
  :class:`~repro.service.scheduler.FairScheduler` in weighted fair
  order, then run as *one* :func:`~repro.sweep.runner.run_sweep` batch,
  so cells sharing a topology share its construction and route caches
  exactly like a sweep would.
* **Keep-going errors** — each batch runs with ``keep_going=True``; a
  failing cell resolves its waiters with a typed error document and is
  *not* stored (failures may be transient), while the rest of the batch
  completes normally.  Settled error documents are retained in a bounded
  in-memory LRU so a client that polls *after* the batch settles still
  gets its ``{"status": "error", ...}`` answer instead of a 404;
  resubmitting the digest evicts the cached error and re-simulates.

Simulations run in a worker thread (``run_sweep`` is synchronous and may
itself fork a worker pool), so the asyncio front-end keeps accepting and
deduplicating submissions while a batch computes.
"""

from __future__ import annotations

import asyncio
import functools
from collections import OrderedDict
from typing import Iterable

from repro.errors import ConfigError, ReproError
from repro.service.scheduler import FairScheduler
from repro.service.store import ResultStore, content_digest
from repro.sweep.plan import SweepCell, SweepPlan
from repro.sweep.runner import run_sweep

__all__ = ["Broker"]

#: Fidelities the engine accepts (mirrors ``repro.engine.simulator``).
_FIDELITIES = ("exact", "approx")

#: Cells drained into one simulation batch.
DEFAULT_BATCH_MAX = 32

#: Settled error documents retained for late pollers (bounded LRU).
ERROR_DOCS_MAX = 256


class Broker:
    """Async front-door over the sweep runner with a content-addressed
    store, in-flight dedup, and weighted per-tenant fair scheduling.

    One broker instance answers for one plan-global configuration
    (``endpoints``, ``fidelity``, ``seed``); the globals are folded into
    every content digest, so two brokers with different configurations
    can share nothing even when pointed at the same store directory.
    """

    def __init__(self, store: ResultStore, *,
                 endpoints: int,
                 fidelity: str = "approx",
                 seed: int = 0,
                 capacity: int = 256,
                 weights: dict[str, int] | None = None,
                 jobs: int = 1,
                 cell_timeout: float | None = None,
                 metrics_path: str | None = None) -> None:
        if endpoints < 2:
            raise ConfigError(
                f"the service needs at least 2 endpoints, got {endpoints}")
        if fidelity not in _FIDELITIES:
            raise ConfigError(
                f"fidelity must be one of {_FIDELITIES}, got {fidelity!r}")
        self.store = store
        self.meta = {"endpoints": endpoints, "fidelity": fidelity,
                     "seed": seed}
        self.jobs = jobs
        self.cell_timeout = cell_timeout
        self.metrics_path = metrics_path
        self._scheduler = FairScheduler(capacity, weights=weights)
        #: digest -> future of every queued or in-flight cell
        self._futures: dict[str, asyncio.Future] = {}
        #: digest -> settled ``{"status": "error", ...}`` document, kept
        #: so pollers arriving after the batch settled still get their
        #: answer (errors are never persisted to the store)
        self._errors: OrderedDict[str, dict] = OrderedDict()
        self._wake = asyncio.Event()
        self._drain_task: asyncio.Task | None = None
        self.counters = {"requests": 0, "store_hits": 0, "deduped": 0,
                         "enqueued": 0, "simulated": 0, "errors": 0,
                         "rejected": 0, "batches": 0}

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        if self._drain_task is None:
            self._drain_task = asyncio.create_task(self._drain_loop())

    @property
    def drain_loop(self) -> str:
        """``"running"`` while the drain task lives, ``"stopped"``
        before :meth:`start` and once the task has ended."""
        task = self._drain_task
        return "running" if task is not None and not task.done() \
            else "stopped"

    async def close(self) -> None:
        if self._drain_task is not None:
            self._drain_task.cancel()
            try:
                await self._drain_task
            except asyncio.CancelledError:
                pass
            self._drain_task = None
        for digest, fut in self._futures.items():
            if not fut.done():
                fut.set_result({"status": "error", "digest": digest,
                                "error": {"error": "ServiceError",
                                          "message": "broker shut down"}})
        self._futures.clear()

    # ----------------------------------------------------------- submission

    def digest_of(self, cell: SweepCell) -> str:
        """The content address this broker files a cell under."""
        return content_digest(cell.fingerprint(), self.meta)

    def submit(self, tenant: str, cell: SweepCell) -> str:
        """Register one cell and return its digest immediately.

        Raises :class:`~repro.errors.QueueFullError` when the cell is
        novel and the bounded queue is saturated; store hits and
        in-flight duplicates never consume queue slots, so repeats stay
        answerable even under full backpressure.

        A digest whose last run ended in a cached error document is
        treated as novel again (failures may be transient): the cached
        error is evicted and the cell re-enqueued.  The store check
        *reads* the record rather than testing existence, so a corrupt
        on-disk record degrades to a re-simulation here instead of a
        ``KeyError`` at result time.
        """
        self.counters["requests"] += 1
        digest = self.digest_of(cell)
        if digest in self._futures:
            self.counters["deduped"] += 1
            return digest
        if self.store.get(digest) is not None:
            self.counters["store_hits"] += 1
            return digest
        try:
            self._scheduler.submit(tenant, (digest, cell))
        except ReproError:
            self.counters["rejected"] += 1
            raise
        self._errors.pop(digest, None)  # retrying a settled failure
        self.counters["enqueued"] += 1
        self._futures[digest] = asyncio.get_running_loop().create_future()
        self._wake.set()
        return digest

    def submit_many(self, tenant: str,
                    cells: Iterable[SweepCell]) -> list[str]:
        """Submit several cells; duplicates within the batch dedup too."""
        return [self.submit(tenant, cell) for cell in cells]

    # -------------------------------------------------------------- results

    def peek(self, digest: str) -> dict | None:
        """Non-blocking status: a done/pending/error response document,
        or ``None`` for a digest this broker has never seen."""
        fut = self._futures.get(digest)
        if fut is not None:
            if fut.done():
                return fut.result()
            return {"status": "pending", "digest": digest}
        error = self._errors.get(digest)
        if error is not None:
            self._errors.move_to_end(digest)
            return dict(error)
        doc = self.store.get(digest)
        if doc is not None:
            return dict(doc, status="done")
        return None

    async def result(self, digest: str) -> dict:
        """Wait for a digest and return its response document.

        ``{"status": "done", ...store record...}`` for a success,
        ``{"status": "error", "digest": ..., "error": {...}}`` for a
        typed per-cell failure, and a :class:`KeyError` for a digest
        never submitted here.
        """
        fut = self._futures.get(digest)
        if fut is not None:
            return await asyncio.shield(fut)
        error = self._errors.get(digest)
        if error is not None:
            self._errors.move_to_end(digest)
            return dict(error)
        doc = self.store.get(digest)
        if doc is None:
            raise KeyError(digest)
        return dict(doc, status="done")

    # ---------------------------------------------------------------- stats

    def stats(self) -> dict:
        """Counters, queue state, and store statistics in one document."""
        return {
            "meta": dict(self.meta),
            "counters": dict(self.counters),
            "queue": {"depth": self._scheduler.depth,
                      "capacity": self._scheduler.capacity,
                      "backlog": self._scheduler.backlog()},
            "inflight": len(self._futures),
            "error_docs": len(self._errors),
            "store": {"records": len(self.store), **self.store.stats},
        }

    # ----------------------------------------------------------- drain loop

    def _take_batch(self) -> list[tuple[str, str, SweepCell]]:
        """Drain up to ``DEFAULT_BATCH_MAX`` fair-ordered cells with unique
        keys.

        Two distinct fingerprints can share a cell *key* (keys omit the
        placement policy), and one ``run_sweep`` call indexes
        by key — so a key-colliding cell is pushed back for the next
        batch rather than silently aliasing.  The push-back happens
        synchronously (no await between drain and resubmit), so it can
        never race a concurrent submission past the capacity bound.
        """
        batch: list[tuple[str, str, SweepCell]] = []
        deferred: list[tuple[str, tuple[str, SweepCell]]] = []
        keys: set[str] = set()
        for tenant, (digest, cell) in self._scheduler.drain(
                DEFAULT_BATCH_MAX):
            if cell.key() in keys:
                deferred.append((tenant, (digest, cell)))
                continue
            keys.add(cell.key())
            batch.append((tenant, digest, cell))
        for tenant, entry in deferred:
            self._scheduler.submit(tenant, entry)
        return batch

    async def _drain_loop(self) -> None:
        """Run queued cells batch by batch until cancelled.  A failing
        cell settles as an error document; an exception escaping a whole
        batch fails that batch's unsettled waiters, and the loop lives
        on."""
        loop = asyncio.get_running_loop()
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self._scheduler.depth:
                batch = self._take_batch()
                if not batch:
                    break
                results: dict[str, dict] = {}
                failures: dict[str, dict] = {}
                self.counters["batches"] += 1
                try:
                    plan = SweepPlan(cells=tuple(c for _, _, c in batch),
                                     **self.meta)
                    await loop.run_in_executor(None, functools.partial(
                        run_sweep, plan,
                        jobs=self.jobs,
                        keep_going=True,
                        cell_timeout=self.cell_timeout,
                        metrics_path=self.metrics_path,
                        metrics_append=True,
                        failures_out=failures,
                        results_out=results))
                    self._settle(batch, results, failures)
                except Exception as exc:
                    # a batch-level failure (not per-cell): fail every
                    # unsettled waiter with the typed error, cache nothing
                    error = {"error": type(exc).__name__,
                             "message": str(exc)}
                    self._settle(
                        [entry for entry in batch
                         if entry[1] in self._futures], {},
                        {cell.key(): error for _, _, cell in batch})

    def _settle(self, batch, results: dict[str, dict],
                failures: dict[str, dict]) -> None:
        for _, digest, cell in batch:
            # popped once settled: a store write that raises leaves the
            # waiter to the drain loop's batch-level handler
            fut = self._futures.get(digest)
            key = cell.key()
            doc = results.get(key)
            if doc is not None and "error" not in doc:
                stored = self.store.put(digest, cell.fingerprint(),
                                        self.meta, doc)
                self.counters["simulated"] += 1
                response = dict(stored, status="done")
                self._errors.pop(digest, None)  # success supersedes
            else:
                error = failures.get(key) or (doc if doc else {
                    "error": "SimulationError",
                    "message": f"cell {key!r} missing from sweep results"})
                self.counters["errors"] += 1
                response = {"status": "error", "digest": digest,
                            "error": error}
                # keep the settled error answerable for late pollers;
                # the future is popped below, so without this a poll
                # arriving after settlement would read as "never seen"
                self._errors[digest] = response
                self._errors.move_to_end(digest)
                while len(self._errors) > ERROR_DOCS_MAX:
                    self._errors.popitem(last=False)
            self._futures.pop(digest, None)
            if fut is not None and not fut.done():
                fut.set_result(response)
