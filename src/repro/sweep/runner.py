"""Parallel, resumable, fault-tolerant sweep executor.

Executes every cell of a :class:`~repro.sweep.plan.SweepPlan`, either
in-process (``jobs=1``, preserving the serial explorer's exact behaviour
and log output) or across a pool of worker processes.

Parallel decomposition
----------------------
Topology construction and route computation dominate a sweep's warm-up
cost, so cells are grouped *by topology* and whole groups are placed on a
shared task queue (largest first).  Workers pull one group at a time,
build its topology once and keep one route store per ``(topology, fault
set)``, shared by every workload replayed on that machine — the same
warm-start the serial explorer gets from its in-process caches.  Both
paths keep these caches in one :class:`_SweepContext`.

Each worker talks to the parent over its own duplex pipe — the parent
assigns groups and the worker streams results back.  Nothing is shared
between workers (a shared queue's internal lock, held by a process at the
instant it is SIGKILLed, would deadlock every other user of the queue),
so one worker's death can never wedge the rest of the pool.  The parent
stores each result in the (optional) checkpoint — a
:class:`~repro.service.store.ResultStore` directory — the moment it
arrives, so a killed sweep loses only in-flight cells and ``resume=True``
re-runs only what is missing.  Simulation is deterministic, so serial and
parallel runs produce identical records (wall-clock fields aside) — fault
injection included, because each cell's
:class:`~repro.topology.degraded.FaultSet` is reproduced from the cell's
own ``(fail_links, fail_uplinks, fail_seed)`` triple wherever it runs.

Surviving worker failure
------------------------
Long degraded sweeps must not die with one worker.  When a worker
disappears without a clean exit (crash, OOM-kill, SIGKILL), the parent
requeues the unfinished cells of its in-flight group onto the surviving
workers and respawns a replacement, up to a bounded respawn budget.  The
cell that was running when the worker died is retried once; if it kills a
second worker it is marked failed instead of being retried forever.
``cell_timeout`` adds a wall-clock cap per cell: a worker stuck past the
cap is killed and the cell marked failed (other cells of its group are
requeued).  With ``keep_going=True`` per-cell failures — simulation
errors, disconnected degraded networks, crashes, timeouts — become typed
error records in the checkpoint's failure sidecar and are reported at the
end; without it the first failure aborts the sweep, as before.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import time
import traceback
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection

from repro import errors
from repro.core.explorer import RunRecord
from repro.engine import RouteCache, simulate
from repro.errors import ReproError, SimulationError
from repro.mapping import placement as placement_mod
from repro.sweep.plan import SweepCell, SweepPlan
from repro.topology.base import Topology
from repro.topology.degraded import DegradedTopology, FaultSet

#: Seconds between liveness/timeout checks while waiting on worker results.
_POLL_SECONDS = 0.25

#: Replacement workers the parent may spawn per run after crashes, before
#: it stops replacing them (surviving workers still drain the queue; the
#: sweep only aborts when none remain).
MAX_RESPAWNS = 3

#: Times a cell may be attempted when its worker keeps dying under it.
_MAX_CELL_ATTEMPTS = 2

#: Type of the per-worker workload cache: (name, tasks, params) ->
#: prepared inputs.
_FlowsCache = dict[tuple[str, int | None, str], tuple]


def run_sweep(plan: SweepPlan, *,
              jobs: int = 1,
              checkpoint: str | os.PathLike | None = None,
              resume: bool = False,
              log: Callable[[str], None] | None = None,
              topology_provider: Callable[..., Topology] | None = None,
              keep_going: bool = False,
              cell_timeout: float | None = None,
              metrics_path: str | os.PathLike | None = None,
              metrics_append: bool = False,
              failures_out: dict[str, dict] | None = None,
              results_out: dict[str, dict] | None = None,
              ) -> list[RunRecord]:
    """Execute a sweep plan and return its records in plan order.

    Parameters
    ----------
    plan:
        The cells to run plus the sweep globals.
    jobs:
        Worker process count.  ``1`` runs in-process (no multiprocessing);
        higher values fan topology groups out over a worker pool that
        survives individual worker deaths (see module docstring).
    checkpoint:
        Optional result-store directory
        (:class:`~repro.service.store.ResultStore`, the store ``repro
        serve`` answers from).  Each completed cell is stored under its
        content digest (cell fingerprint plus :meth:`SweepPlan.meta`) as
        it finishes; with ``resume=True`` cells already stored are not
        recomputed (their stored records are returned instead).  Without
        ``resume`` the plan's cells are re-simulated and their records
        overwritten; other records in the directory stay.
    resume:
        Skip cells present in ``checkpoint``.  Requires ``checkpoint``.
        Failed cells live only in the store's failure sidecar, so they
        are retried, not skipped.
    log:
        Progress sink (one message per call); ``None`` silences progress.
    topology_provider:
        Serial mode only: ``(TopologySpec) -> Topology`` used to build (or
        fetch from a cache) each topology.  The explorer passes its caching
        builder so repeated ``run`` calls share constructed topologies.
        Worker processes always build their own.
    keep_going:
        Record per-cell failures as typed error entries (in the
        checkpoint's failure sidecar) and keep sweeping instead of
        aborting on the first failure.  Failed cells are reported through
        ``log`` at the end and omitted from the returned records.
    cell_timeout:
        Wall-clock seconds a single cell may run.  In parallel mode the
        offending worker is killed and the cell marked failed; in serial
        mode the cap is checked after the cell finishes (best effort — a
        single process cannot preempt itself).
    metrics_path:
        Optional JSONL path; enables per-cell engine instrumentation (each
        cell simulates with a :class:`repro.obs.MetricsCollector`) and
        streams one schema-versioned metrics record per cell to this file.
        The file is regenerated every run: on resume, metrics stored in
        the checkpoint's cell records are replayed first, so a kill/resume
        cycle still yields exactly one record per cell.  Cells resumed
        from records written *without* metrics have none to replay;
        they are counted and reported through ``log``.
    metrics_append:
        Open the ``metrics_path`` stream in append mode instead of
        regenerating it — long-lived callers (the service broker) fold
        many small sweeps into one observability file.
    failures_out:
        Optional dict the ``keep_going`` failure records are merged into,
        keyed by cell key — callers like the design search use it to mark
        candidates infeasible instead of only seeing them vanish from the
        returned records.
    results_out:
        Optional dict the raw cell documents are merged into, keyed by
        cell key — resumed cells included.  The result store persists
        these documents verbatim; the returned :class:`RunRecord` list is
        a narrower projection.
    """
    if jobs < 1:
        raise SimulationError(f"jobs must be >= 1, got {jobs}")
    if resume and checkpoint is None:
        raise SimulationError("resume requires a checkpoint path")
    if cell_timeout is not None and cell_timeout <= 0:
        raise SimulationError(
            f"cell_timeout must be positive, got {cell_timeout}")

    save = None
    done: dict[str, dict] = {}
    if checkpoint is not None:
        save, done = _open_checkpoint(plan, checkpoint, resume, log)
    pending = plan.pending(done)

    stream = None
    if metrics_path is not None:
        from repro.obs import MetricsStream

        stream = MetricsStream(metrics_path, append=metrics_append)
        stream.open()
        # replay metrics of cells already complete in the checkpoint, so
        # the regenerated file covers the whole plan after a resume
        for doc in done.values():
            stream.write_cell(doc)
        if stream.skipped_no_metrics and log is not None:
            log(f"metrics {stream.path}: {stream.skipped_no_metrics} resumed "
                f"cell(s) carry no metrics (checkpoint written without "
                f"--metrics); they are absent from the metrics file")

    failures: dict[str, dict] = {}
    try:
        if jobs == 1:
            records = _run_serial(plan, pending, save, log,
                                  topology_provider, keep_going, cell_timeout,
                                  failures, stream)
        else:
            records = _run_parallel(plan, pending, save, log, jobs,
                                    keep_going, cell_timeout,
                                    failures, stream)
    finally:
        if stream is not None:
            stream.close()

    by_key = dict(done)
    by_key.update(records)
    missing = [c.key() for c in plan.cells
               if c.key() not in by_key and c.key() not in failures]
    if missing:
        raise SimulationError(f"sweep finished with missing cells: {missing}")
    if failures and log is not None:
        log(f"{len(failures)} cell(s) failed and were recorded as typed "
            f"error entries: {', '.join(sorted(failures))}")
    if failures_out is not None:
        failures_out.update(failures)
    if results_out is not None:
        results_out.update(by_key)
    return [_to_record(by_key[c.key()]) for c in plan.cells
            if c.key() in by_key]


def _open_checkpoint(plan: SweepPlan, checkpoint: str | os.PathLike,
                     resume: bool, log: Callable[[str], None] | None
                     ) -> tuple[Callable[[dict], None], dict[str, dict]]:
    """Bind a sweep to its result-store directory.

    Returns the sink each finished cell document goes to (results into
    the store, ``keep_going`` failures into its sidecar) and, when
    resuming, the stored records of the plan's cells by key.
    """
    # imported here: repro.service imports repro.sweep
    from repro.service.store import ResultStore, content_digest

    store = ResultStore(checkpoint)
    meta = plan.meta()
    cells = {c.key(): c for c in plan.cells}
    digests = {key: content_digest(c.fingerprint(), meta)
               for key, c in cells.items()}

    def save(doc: dict) -> None:
        digest = digests[doc["key"]]
        if "error" in doc:
            store.put_failure(digest, doc)
        else:
            store.put(digest, cells[doc["key"]].fingerprint(), meta, doc)

    done: dict[str, dict] = {}
    if resume:
        for key, digest in digests.items():
            stored = store.get(digest)
            if stored is not None:
                done[key] = stored["record"]
        if log is not None:
            if store.stats["corrupt"]:
                log(f"checkpoint {store.root}: removed "
                    f"{store.stats['corrupt']} unreadable record(s); the "
                    f"affected cells will be re-run")
            failed = store.failures().keys() & {
                d for k, d in digests.items() if k not in done}
            if failed:
                log(f"checkpoint {store.root}: retrying {len(failed)} "
                    f"cell(s) previously recorded as failed")
    if log is not None:
        log(f"checkpoint {store.root}: {len(done)} of {len(plan.cells)} "
            f"cells already complete")
    return save, done


# ---------------------------------------------------------------- cell work
def _prepare_workload(plan: SweepPlan, cell: SweepCell,
                      flows_cache: _FlowsCache) -> tuple:
    """Build (once per workload) the flow set and placement for a cell."""
    wspec = cell.workload
    key = _workload_key(cell)
    if key not in flows_cache:
        flows = wspec.build(plan.endpoints, seed=plan.seed).build()
        tasks = wspec.resolve_tasks(plan.endpoints)
        if tasks == plan.endpoints:
            placement = None  # identity
        else:
            placement = placement_mod.by_name(cell.placement, tasks,
                                              plan.endpoints, seed=plan.seed)
        flows_cache[key] = (flows, placement, tasks)
    return flows_cache[key]


def _workload_key(cell: SweepCell) -> tuple[str, int | None, str]:
    """Flow-set identity: cells differing only in workload params must
    not share prepared flows."""
    wspec = cell.workload
    return (wspec.name, wspec.tasks,
            json.dumps(wspec.params, sort_keys=True))


class _SweepContext:
    """The caches one sweep process keeps between cells.

    Prepared workloads (flows and placement), built topologies, their
    fault-wrapped :class:`~repro.topology.degraded.DegradedTopology`
    views, and one :class:`~repro.engine.RouteCache` per
    :meth:`SweepCell.cache_key` — a ``(topology, fault set)`` — shared by
    every workload run on it.

    ``topology_provider`` replaces the context's own topology builds (the
    explorer passes its caching builder).  With ``keep_topologies`` every
    topology's caches live as long as the context, as the serial path
    needs; without it (a worker, which holds one topology group at a
    time) a new topology label drops the previous topology, its views and
    its route caches.  Prepared workloads are kept either way.
    """

    def __init__(self, plan: SweepPlan, *,
                 topology_provider: Callable[..., Topology] | None = None,
                 keep_topologies: bool = True,
                 collect_metrics: bool = False,
                 log: Callable[[str], None] | None = None) -> None:
        self.plan = plan
        self.flows: _FlowsCache = {}
        self._provider = topology_provider
        self._keep = keep_topologies
        self._collect = collect_metrics
        self._log = log
        self._topologies: dict[str, Topology] = {}
        self._degraded: dict[str, Topology] = {}
        self._routes: dict[str, RouteCache] = {}

    def _base(self, cell: SweepCell) -> Topology:
        if self._provider is not None:
            return self._provider(cell.topology)
        label = cell.topology.label()
        if label not in self._topologies:
            if not self._keep:
                self._topologies.clear()
                self._degraded.clear()
                self._routes.clear()
            if self._log is not None:
                self._log(f"building {label} @ {self.plan.endpoints} "
                          f"endpoints")
            self._topologies[label] = cell.topology.build(self.plan.endpoints)
        return self._topologies[label]

    def run(self, cell: SweepCell) -> dict:
        """Simulate one cell, fault-wrapped when it has faults, through
        the module-level :func:`_run_cell` (looked up per call, so a
        patched ``_run_cell`` is honoured)."""
        topo = self._base(cell)
        if cell.has_faults():
            key = cell.cache_key()
            if key not in self._degraded:
                self._degraded[key] = DegradedTopology(
                    topo, FaultSet.sample(topo, cables=cell.fail_links,
                                          uplinks=cell.fail_uplinks,
                                          seed=cell.fail_seed))
            topo = self._degraded[key]
        return _run_cell(self.plan, cell, topo, self.flows,
                         self._routes.setdefault(cell.cache_key(),
                                                 RouteCache()),
                         collect_metrics=self._collect)


def _run_cell(plan: SweepPlan, cell: SweepCell, topology: Topology,
              flows_cache: _FlowsCache,
              route_cache: RouteCache,
              collect_metrics: bool = False) -> dict:
    """Simulate one cell and return its storable record.

    With ``collect_metrics`` the cell runs instrumented (fresh
    :class:`~repro.obs.MetricsCollector` per cell) and the record carries
    the engine's metrics snapshot under ``"metrics"`` — the checkpoint
    stores it, so resumed sweeps can replay metrics without re-simulating.
    """
    flows, placement, _ = _prepare_workload(plan, cell, flows_cache)
    collector = None
    if collect_metrics:
        from repro.obs import MetricsCollector

        collector = MetricsCollector(topology.links.num_links)
    # the spec is rebuilt against the concrete topology wherever the cell
    # runs, so serial and parallel runs sample the identical event trace
    timeline = cell.timeline.build(topology) if cell.timeline is not None \
        else None
    t0 = time.perf_counter()
    result = simulate(topology, flows, placement=placement,
                      fidelity=plan.fidelity, route_cache=route_cache,
                      metrics=collector, routing=cell.routing,
                      fault_timeline=timeline)
    wall = time.perf_counter() - t0
    doc = {
        "key": cell.key(),
        "workload": cell.workload.name,
        "topology": cell.topology.label(),
        "family": cell.topology.family,
        "t": cell.topology.params.get("t"),
        "u": cell.topology.params.get("u"),
        "faults": cell.fault_fingerprint(),
        "routing": cell.routing,
        "makespan": result.makespan,
        "num_flows": result.num_flows,
        "events": result.events,
        "reallocations": result.reallocations,
        "wall_seconds": wall,
    }
    if cell.timeline is not None:
        doc["timeline"] = cell.timeline.fingerprint()
    if result.transient is not None:
        doc["transient"] = result.transient
    if result.metrics is not None:
        doc["metrics"] = result.metrics
    return doc


def _error_doc(cell: SweepCell, error_type: str, message: str) -> dict:
    """Typed failure entry for a cell that could not produce a result."""
    return {
        "key": cell.key(),
        "workload": cell.workload.name,
        "topology": cell.topology.label(),
        "faults": cell.fault_fingerprint(),
        "error": {"type": error_type, "message": message},
    }


def _to_record(doc: dict) -> RunRecord:
    return RunRecord(
        workload=doc["workload"], topology=doc["topology"],
        family=doc["family"], t=doc["t"], u=doc["u"],
        makespan=doc["makespan"], num_flows=doc["num_flows"],
        events=doc["events"], reallocations=doc["reallocations"],
        wall_seconds=doc["wall_seconds"], faults=doc.get("faults"),
        routing=doc.get("routing", "deterministic"),
        timeline=doc.get("timeline"), transient=doc.get("transient"))


def _cell_log_line(doc: dict) -> str:
    label = doc["topology"]
    if doc.get("faults"):
        f = doc["faults"]
        label += f"+{f['cables']}c/{f['uplinks']}u"
    if doc.get("timeline"):
        t = doc["timeline"]
        label += f"±{t.get('cables', '?')}c/{t.get('uplinks', '?')}u"
    if doc.get("routing", "deterministic") != "deterministic":
        label += f"~{doc['routing']}"
    return (f"  {label:>16}: {doc['makespan'] * 1e3:9.3f} ms "
            f"({doc['wall_seconds']:5.1f}s wall)")


def _failure_log_line(doc: dict) -> str:
    err = doc["error"]
    return (f"  {doc['topology']:>16}: FAILED "
            f"({err['type']}: {err['message']})")


# -------------------------------------------------------------- serial path
def _run_serial(plan: SweepPlan, pending: list[SweepCell],
                save: Callable[[dict], None] | None,
                log: Callable[[str], None] | None,
                topology_provider: Callable[..., Topology] | None,
                keep_going: bool, cell_timeout: float | None,
                failures: dict[str, dict],
                stream=None) -> dict[str, dict]:
    ctx = _SweepContext(plan, topology_provider=topology_provider,
                        collect_metrics=stream is not None, log=log)
    records: dict[str, dict] = {}
    current_workload: tuple[str, int | None, str] | None = None

    def record_failure(doc: dict) -> None:
        failures[doc["key"]] = doc
        if save is not None:
            save(doc)
        if log is not None:
            log(_failure_log_line(doc))

    for cell in pending:
        wkey = _workload_key(cell)
        try:
            if wkey != current_workload:
                flows, _, tasks = _prepare_workload(plan, cell, ctx.flows)
                if log is not None:
                    log(f"workload {cell.workload.name}: {flows.num_flows} "
                        f"flows, {tasks} tasks")
                current_workload = wkey
            doc = ctx.run(cell)
        except ReproError as exc:
            if not keep_going:
                raise
            record_failure(_error_doc(cell, type(exc).__name__, str(exc)))
            continue
        if cell_timeout is not None and doc["wall_seconds"] > cell_timeout:
            # a single process cannot preempt itself; flag after the fact
            err = _error_doc(
                cell, "CellTimeout",
                f"cell took {doc['wall_seconds']:.1f}s, over the "
                f"{cell_timeout:g}s cell timeout")
            if not keep_going:
                raise SimulationError(err["error"]["message"])
            record_failure(err)
            continue
        records[doc["key"]] = doc
        if save is not None:
            save(doc)
        if stream is not None:
            stream.write_cell(doc)
        if log is not None:
            log(_cell_log_line(doc))
    return records


# ------------------------------------------------------------ parallel path
def _group_cells(pending: list[SweepCell]) -> list[list[SweepCell]]:
    """Cells grouped by topology label, largest group first.

    A group is the unit of worker assignment: one worker runs a whole
    group so the topology is built once and its route caches are reused
    across every workload (and fault set) replayed on it.
    """
    groups: dict[str, list[SweepCell]] = {}
    for cell in pending:
        groups.setdefault(cell.topology.label(), []).append(cell)
    return sorted(groups.values(), key=len, reverse=True)


def _sweep_worker(plan: SweepPlan, conn, worker_id: int,
                  collect_metrics: bool = False) -> None:
    """Worker loop: receive topology groups, build once, run their cells.

    The worker owns one end of a duplex pipe.  The parent sends
    ``("run", gid, cells)`` / ``("stop",)``; the worker streams back
    ``start`` / ``ok`` / ``cellerror`` / ``groupdone`` messages.  Per-cell
    :class:`~repro.errors.ReproError` failures are reported as
    ``cellerror`` and the loop continues; anything else is a bug and
    aborts via a ``fatal`` message.
    """
    try:
        ctx = _SweepContext(plan, keep_topologies=False,
                            collect_metrics=collect_metrics)
        while True:
            try:
                msg = conn.recv()
            except EOFError:  # parent is gone
                return
            if msg[0] == "stop":
                break
            gid, cells = msg[1], msg[2]
            for cell in cells:
                conn.send(("start", cell.key()))
                try:
                    doc = ctx.run(cell)
                except ReproError as exc:
                    conn.send(("cellerror",
                               _error_doc(cell, type(exc).__name__,
                                          str(exc))))
                    continue
                conn.send(("ok", doc))
            conn.send(("groupdone", gid))
    except Exception:
        conn.send(("fatal", traceback.format_exc()))
    finally:
        try:
            conn.send(("exit",))
        except Exception:  # pipe already torn down mid-shutdown
            pass


@dataclass
class _WorkerState:
    proc: mp.process.BaseProcess
    conn: mp_connection.Connection
    group: int | None = None
    current: str | None = None
    started: float = field(default_factory=time.monotonic)
    broken: bool = False   # pipe raised mid-recv; treat as dead
    finished: bool = False  # sent its final "exit" message


def _run_parallel(plan: SweepPlan, pending: list[SweepCell],
                  save: Callable[[dict], None] | None,
                  log: Callable[[str], None] | None,
                  jobs: int, keep_going: bool, cell_timeout: float | None,
                  failures: dict[str, dict],
                  stream=None) -> dict[str, dict]:
    if not pending:
        return {}
    collect = stream is not None
    groups = _group_cells(pending)
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    ctx = mp.get_context(method)

    groups_by_id: dict[int, list[SweepCell]] = dict(enumerate(groups))
    group_queue: deque[int] = deque(groups_by_id)
    next_gid = len(groups)

    workers: dict[int, _WorkerState] = {}
    next_wid = 0

    def spawn() -> None:
        nonlocal next_wid
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=_sweep_worker,
                           args=(plan, child_conn, next_wid, collect),
                           daemon=True)
        proc.start()
        child_conn.close()
        workers[next_wid] = _WorkerState(proc=proc, conn=parent_conn)
        next_wid += 1

    for _ in range(min(jobs, len(groups))):
        spawn()
    if log is not None:
        log(f"running {len(pending)} cells across {len(workers)} workers "
            f"({len(groups)} topology groups)")

    outstanding: dict[str, SweepCell] = {c.key(): c for c in pending}
    records: dict[str, dict] = {}
    attempts: dict[str, int] = {}
    respawns_used = 0
    reaped: list[_WorkerState] = []
    failure: ReproError | None = None

    def record_failure(doc: dict) -> None:
        nonlocal failure
        key = doc["key"]
        outstanding.pop(key, None)
        if keep_going:
            failures[key] = doc
            if save is not None:
                save(doc)
            if log is not None:
                log(_failure_log_line(doc))
        else:
            failure = _typed_error(key, doc["error"])

    def handle(state: _WorkerState, msg: tuple) -> None:
        nonlocal failure
        kind = msg[0]
        if kind == "ok":
            doc = msg[1]
            records[doc["key"]] = doc
            outstanding.pop(doc["key"], None)
            state.current = None
            if save is not None:
                save(doc)
            if stream is not None:
                stream.write_cell(doc)
            if log is not None:
                log(f"[{doc['workload']}]" + _cell_log_line(doc))
        elif kind == "cellerror":
            state.current = None
            record_failure(msg[1])
        elif kind == "start":
            state.current = msg[1]
            state.started = time.monotonic()
        elif kind == "groupdone":
            state.group = None
            state.current = None
        elif kind == "fatal":
            failure = SimulationError(f"sweep worker failed:\n{msg[1]}")
        else:  # "exit"
            state.finished = True

    def drain(state: _WorkerState) -> None:
        """Pump every message the worker has delivered so far.

        A pipe torn mid-write by a dying worker can raise on ``recv``
        (EOF, OSError, or an unpickling error); the worker is then marked
        broken and reaped on the next liveness check.
        """
        while not state.broken:
            try:
                if not state.conn.poll():
                    return
                msg = state.conn.recv()
            except Exception:
                state.broken = True
                return
            handle(state, msg)

    def dispatch() -> None:
        for state in workers.values():
            if not group_queue:
                return
            if state.group is None and not state.broken and not state.finished:
                gid = group_queue.popleft()
                try:
                    state.conn.send(("run", gid, groups_by_id[gid]))
                except Exception:
                    state.broken = True
                    group_queue.appendleft(gid)
                    continue
                state.group = gid

    def reap_dead_workers() -> None:
        nonlocal respawns_used, next_gid, failure
        for wid, state in list(workers.items()):
            if not state.broken and state.proc.is_alive():
                continue
            # dead: crash, OOM-kill, or our timeout kill below — salvage
            # results still buffered in its pipe, then its in-flight group
            workers.pop(wid)
            drain(state)
            state.conn.close()
            state.proc.join(timeout=5.0)
            reaped.append(state)
            crashed = state.current if state.current in outstanding else None
            requeue = []
            if state.group is not None:
                requeue = [c for c in groups_by_id[state.group]
                           if c.key() in outstanding]
            if crashed is not None:
                attempts[crashed] = attempts.get(crashed, 0) + 1
                if attempts[crashed] >= _MAX_CELL_ATTEMPTS:
                    record_failure(_error_doc(
                        outstanding[crashed], "WorkerCrashed",
                        f"worker died {attempts[crashed]} times running "
                        f"this cell (last exit code {state.proc.exitcode})"))
                    requeue = [c for c in requeue if c.key() != crashed]
            if state.finished and not requeue:
                continue  # clean shutdown, nothing lost
            if log is not None:
                log(f"worker {wid} died (exit code {state.proc.exitcode}); "
                    f"requeueing {len(requeue)} unfinished cell(s)")
            if requeue:
                groups_by_id[next_gid] = requeue
                group_queue.append(next_gid)
                next_gid += 1
            if respawns_used < MAX_RESPAWNS and outstanding:
                respawns_used += 1
                spawn()
            if not workers and outstanding and failure is None:
                failure = SimulationError(
                    f"all sweep workers died and the respawn budget "
                    f"({MAX_RESPAWNS}) is exhausted; "
                    f"{len(outstanding)} cells unfinished")

    def kill_timed_out_workers() -> None:
        if cell_timeout is None:
            return
        now = time.monotonic()
        for wid, state in list(workers.items()):
            if (state.current is not None
                    and state.current in outstanding
                    and now - state.started > cell_timeout):
                cell = outstanding[state.current]
                state.proc.kill()
                state.current = None  # failed here, not a crash retry
                record_failure(_error_doc(
                    cell, "CellTimeout",
                    f"cell exceeded the {cell_timeout:g}s cell timeout in "
                    f"worker {wid}; worker killed"))

    try:
        while outstanding and failure is None:
            dispatch()
            conns = {state.conn: state for state in workers.values()
                     if not state.broken}
            for ready in mp_connection.wait(list(conns),
                                            timeout=_POLL_SECONDS):
                drain(conns[ready])
                if failure is not None:
                    break
            if failure is not None or not outstanding:
                break
            kill_timed_out_workers()
            reap_dead_workers()
    finally:
        for state in workers.values():
            try:
                state.conn.send(("stop",))
            except Exception:
                state.broken = True
        deadline = time.monotonic() + 5.0
        for state in workers.values():
            state.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if state.proc.is_alive():
                state.proc.terminate()
                state.proc.join()
            state.conn.close()
    if failure is not None:
        raise failure
    return records


def _typed_error(key: str, error: dict) -> ReproError:
    """The error a worker reported for cell ``key``, as the same
    :mod:`repro.errors` class, so a bad input fails the same way serially
    and in parallel.  Classes with their own constructor, and failures
    that are no exception class (a timeout, a crashed worker), come back
    as :class:`SimulationError`."""
    name, message = error["type"], error["message"]
    cls = getattr(errors, name, None)
    if (isinstance(cls, type) and issubclass(cls, ReproError)
            and cls.__init__ is Exception.__init__):
        return cls(message)
    return SimulationError(f"sweep cell {key} failed: {name}: {message}")
