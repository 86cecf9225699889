"""The benchmark's three workloads.

* ``fig4-cold-sweep`` — the allreduce column of Figure 4 (26 topologies)
  at 4,096 endpoints, approx fidelity, one cold ``run_sweep`` per cell.
* ``event-tail`` — event-heavy cells on ``nesttree(2,4)`` at 2,048
  endpoints with topology, flows and routes built and warmed in set-up.
* ``serve-explore`` — open-loop traffic against a ``repro serve`` process
  at 512 endpoints that starts with an empty store.

Each workload has a set-up step and a measured step.  A measured step
returns a :class:`Measured`; ``replay`` repeats exactly the work of an
earlier measured step, which the traced run uses to compare a traced and
an untraced pass over the same cells.  Scales are fixed per
:class:`Scale`: the named workloads run only at :data:`FULL`, and the
self-check's smoke run uses :data:`SMOKE`.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import resource
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cells as cellmod
import hostspeed
import loadgen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclass(frozen=True)
class Scale:
    fig4_endpoints: int
    tail_endpoints: int
    tail_nbodies_tasks: int
    serve_endpoints: int
    #: offered request rate of the serve traffic (requests per second)
    serve_rate: float
    serve_min_requests: int
    #: keep only the first N topologies of the figure order (smoke only)
    topologies: int | None = None


#: The named workloads' scale.  nbodies runs at 128 tasks: at its sweep
#: default of 512 tasks one approx cell takes about 80 s, beyond a run.
FULL = Scale(fig4_endpoints=4096, tail_endpoints=2048, tail_nbodies_tasks=128,
             serve_endpoints=512, serve_rate=35.0, serve_min_requests=1000)

#: A seconds-long end-to-end pass of every workload, for the self-check.
SMOKE = Scale(fig4_endpoints=64, tail_endpoints=64, tail_nbodies_tasks=16,
              serve_endpoints=64, serve_rate=40.0, serve_min_requests=40,
              topologies=3)


@dataclass
class Measured:
    """What one measured step did."""

    records: list[dict] = field(default_factory=list)
    window_s: float = 0.0
    #: the work list a replay repeats
    work: object = None
    #: workload-specific figures (serve latencies, server counters, ...)
    extra: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["problems"])

    def host_s(self) -> list[float]:
        return [r["host_s"] for r in self.records if "host_s" in r]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _figure_topologies(explorer, scale: Scale) -> list:
    specs = explorer.topology_specs()
    return specs if scale.topologies is None else specs[:scale.topologies]


def _record(workload: str, topology: str, fidelity: str, routing: str,
            result, host_s: float) -> dict:
    return {"workload": workload, "topology": topology, "fidelity": fidelity,
            "routing": routing, "makespan": result["makespan"],
            "events": result["events"],
            "reallocations": result["reallocations"],
            "completed": result["completed"], "host_s": host_s}


# --------------------------------------------------------- fig4-cold-sweep
#: Window seconds budgeted per cell: a run measures ``seconds // 2`` cells
#: (15 in 30 s), whatever the program's speed, so a faster or slower
#: program is timed on the same cells.  The slowest cell takes about 2 s
#: on a 2-core host.
FIG4_CELL_BUDGET_S = 2.0


class Fig4ColdSweep:
    """Cold Figure-4 allreduce cells, one fresh ``run_sweep`` each.

    Cells run in a fixed order — every fifth cell of the figure order,
    wrapping — so the first dozen already mix families, densities and the
    two baselines.  A run measures the first ``seconds //``
    :data:`FIG4_CELL_BUDGET_S` cells of that order (at least one).
    """

    name = "fig4-cold-sweep"

    def __init__(self, scale: Scale, seed: int, reference: dict | None):
        self.scale = scale
        self.seed = seed
        # allreduce draws nothing from the seed: the entries hold for all
        self.reference = None if reference is None else reference["cells"]

    def setup(self) -> None:
        from repro.core.explorer import DesignSpaceExplorer

        explorer = DesignSpaceExplorer(self.scale.fig4_endpoints,
                                       fidelity="approx", seed=self.seed,
                                       progress=False)
        keep = {s.label() for s in _figure_topologies(explorer, self.scale)}
        plan = explorer.plan(["allreduce"])
        figure = [c for c in plan.cells if c.topology.label() in keep]
        n = len(figure)
        stride = 5 if n % 5 else 1
        self.cells = [figure[(stride * i) % n] for i in range(n)]

    def measure(self, seconds: float, replay=None) -> Measured:
        import repro.sweep.runner as runner

        # every flow must complete: read the completion times of each
        # simulation the runner makes (the runner records only summaries)
        completed: list[bool] = []
        inner = runner.simulate

        def checked(*args, **kwargs):
            result = inner(*args, **kwargs)
            completed.append(bool(np.isfinite(result.completion_times).all())
                             and result.num_flows == args[1].num_flows)
            return result
        out = Measured()
        count = max(1, int(seconds // FIG4_CELL_BUDGET_S))
        out.work = replay if replay is not None else \
            list(itertools.islice(itertools.cycle(self.cells), count))
        runner.simulate = checked
        start = time.perf_counter()
        try:
            for cell in out.work:
                out.records.append(self._run(cell, completed))
        finally:
            runner.simulate = inner
        out.window_s = time.perf_counter() - start
        return out

    def _run(self, cell, completed: list[bool]) -> dict:
        import repro.sweep.runner as runner
        from repro.errors import ReproError
        from repro.sweep import SweepPlan

        label = cell.topology.label()
        plan = SweepPlan(endpoints=self.scale.fig4_endpoints,
                         fidelity="approx", seed=self.seed, cells=(cell,))
        docs: dict = {}
        completed.clear()
        t0 = hostspeed.clock()
        try:
            runner.run_sweep(plan, results_out=docs)
        except ReproError as exc:
            return {"workload": "allreduce", "topology": label,
                    "fidelity": "approx", "routing": "deterministic",
                    "problems": [f"{type(exc).__name__}: {exc}"]}
        host = hostspeed.clock() - t0
        doc = docs[cell.key()]
        rec = _record("allreduce", label, "approx", "deterministic",
                      dict(doc, completed=completed == [True]), host)
        rec["problems"] = cellmod.check_cell(
            rec, self.reference, cellmod.cell_key("allreduce", label,
                                                  "approx"))
        return rec


# ------------------------------------------------------------- event-tail
#: (workload, fidelity) cells of one event-tail pass, in run order.
TAIL_CELLS = (("bisection", "approx"), ("unstructuredapp", "approx"),
              ("unstructuredhr", "approx"), ("nbodies", "approx"),
              ("unstructuredapp", "exact"), ("unstructuredhr", "exact"))

TAIL_TOPOLOGY = ("nesttree", {"t": 2, "u": 4})

#: The run seed picks one of this many plan seeds (``seed % N``), and the
#: reference holds the outputs of every one of them, so a run at any seed
#: is held to committed makespans, events and reallocations.
TAIL_PLAN_SEEDS = 32

#: Window seconds budgeted per pass over :data:`TAIL_CELLS`: a run makes
#: ``seconds // 25`` passes (at least one).  A pass takes 18 to 22 s on a
#: 2-core host.
TAIL_PASS_BUDGET_S = 25.0



class EventTail:
    """Warm, event-heavy cells; a run is ``seconds //``
    :data:`TAIL_PASS_BUDGET_S` passes over :data:`TAIL_CELLS` (at least
    one)."""

    name = "event-tail"

    def __init__(self, scale: Scale, seed: int, reference: dict | None):
        self.scale = scale
        self.seed = seed % TAIL_PLAN_SEEDS
        # a reference without this plan seed's cells fails every cell
        self.reference = None if reference is None else \
            reference["cells"].get(str(self.seed), {})

    def setup(self) -> None:
        from repro.core.config import TopologySpec, WorkloadSpec
        from repro.core.explorer import PLACEMENT_POLICY, workload_spec_for
        from repro.engine.static import analyze

        endpoints = self.scale.tail_endpoints
        family, params = TAIL_TOPOLOGY
        self.label = TopologySpec(family, params).label()
        self.topology = TopologySpec(family, params).build(endpoints)
        self.route_cache: dict = {}
        self.inputs = {}
        for name in dict.fromkeys(w for w, _ in TAIL_CELLS):
            wspec = (WorkloadSpec(name, tasks=self.scale.tail_nbodies_tasks)
                     if name == "nbodies" else
                     workload_spec_for(name, endpoints))
            flows, placement = cellmod.prepare(
                wspec, endpoints, PLACEMENT_POLICY.get(name, "spread"),
                self.seed)
            # routes every flow into the shared cache the cells reuse
            analyze(self.topology, flows, placement=placement,
                    route_cache=self.route_cache)
            bound = cellmod.lower_bound(self.topology, flows, placement,
                                        "deterministic", self.route_cache)
            self.inputs[name] = (flows, placement, bound)

    def measure(self, seconds: float, replay=None) -> Measured:
        import repro.engine as engine

        out = Measured()
        out.work = replay if replay is not None else \
            max(1, int(seconds // TAIL_PASS_BUDGET_S))
        start = time.perf_counter()
        for _ in range(out.work):
            makespans = {}
            for name, fidelity in TAIL_CELLS:
                flows, placement, bound = self.inputs[name]
                t0 = hostspeed.clock()
                result = engine.simulate(self.topology, flows,
                                         placement=placement,
                                         fidelity=fidelity,
                                         route_cache=self.route_cache)
                host = hostspeed.clock() - t0
                done = bool(np.isfinite(result.completion_times).all()) \
                    and result.num_flows == flows.num_flows
                rec = _record(name, self.label, fidelity, "deterministic",
                              {"makespan": result.makespan,
                               "events": result.events,
                               "reallocations": result.reallocations,
                               "completed": done}, host)
                rec["problems"] = cellmod.check_cell(
                    rec, self.reference,
                    cellmod.cell_key(name, self.label, fidelity), bound)
                out.records.append(rec)
                makespans[(name, fidelity)] = result.makespan
            out.extra.setdefault("pass_s", []).append(
                sum(r["host_s"] for r in out.records[-len(TAIL_CELLS):]))
            gaps = [abs(makespans[(w, "approx")] - exact) / exact
                    for (w, f), exact in makespans.items() if f == "exact"]
            out.extra["approx_err_max"] = max(
                [out.extra.get("approx_err_max", 0.0), *gaps])
        out.window_s = time.perf_counter() - start
        return out


# ---------------------------------------------------------- serve-explore
SERVE_WORKLOADS = ("allreduce", "nearneighbors", "unstructuredhr", "reduce",
                   "sweep3d", "flood")
SERVE_ROUTINGS = ("deterministic", "ecmp")

#: ECMP cells left out of the catalogue, as (workload, topology): each
#: takes more than 1 s cold through one ``run_sweep`` of its own on a
#: 2-core host (1.1 to 7.5 s; every nearneighbors one), and 1.5 to 2 times
#: that inside the loaded server, past the 2 s latency limit.  A request
#: for one could only miss, and a few of them saturate the single batch
#: worker.  mapreduce and unstructuredmgnt are left out whole for the same
#: reason.  The other 244 cells take 0.02 to 1 s.
SERVE_SLOW_ECMP = frozenset(
    (workload, topology) for workload, topologies in {
        "allreduce": (
            "fattree", "nestghc(4,4)", "nestghc(4,8)", "nesttree(2,1)",
            "nesttree(2,2)", "nesttree(2,4)", "nesttree(2,8)",
            "nesttree(4,1)", "nesttree(4,2)", "nesttree(4,4)",
            "nesttree(4,8)", "nesttree(8,1)"),
        "flood": (
            "fattree", "nestghc(2,1)", "nestghc(2,2)", "nestghc(2,4)",
            "nestghc(2,8)", "nestghc(4,2)", "nestghc(4,4)", "nestghc(4,8)",
            "nesttree(2,1)", "nesttree(2,2)", "nesttree(2,4)",
            "nesttree(2,8)", "nesttree(4,1)", "nesttree(4,2)",
            "nesttree(4,4)", "nesttree(4,8)"),
        "nearneighbors": (
            "fattree", "nestghc(2,1)", "nestghc(2,2)", "nestghc(2,4)",
            "nestghc(2,8)", "nestghc(4,1)", "nestghc(4,2)", "nestghc(4,4)",
            "nestghc(4,8)", "nestghc(8,1)", "nestghc(8,2)", "nestghc(8,4)",
            "nestghc(8,8)", "nesttree(2,1)", "nesttree(2,2)",
            "nesttree(2,4)", "nesttree(2,8)", "nesttree(4,1)",
            "nesttree(4,2)", "nesttree(4,4)", "nesttree(4,8)",
            "nesttree(8,1)", "nesttree(8,2)", "nesttree(8,4)",
            "nesttree(8,8)", "torus"),
        "sweep3d": ("nesttree(4,1)",),
        "unstructuredhr": (
            "fattree", "nestghc(2,1)", "nestghc(4,2)", "nestghc(4,4)",
            "nestghc(4,8)", "nesttree(2,1)", "nesttree(2,2)",
            "nesttree(2,4)", "nesttree(2,8)", "nesttree(4,1)",
            "nesttree(4,2)", "nesttree(4,4)", "nesttree(4,8)"),
    }.items() for topology in topologies)

#: Zipf exponent of cell popularity, and the offered rate (in
#: :data:`FULL`).  Both are synthetic: no observed traffic backs them.
#: They are set so that a run simulates a cold set of about ten cells
#: (0.02 to 2 s each inside the server) while the batch worker stays
#: mostly idle, and so that the 2 s limit binds on a few requests (about
#: 1%, queued behind the cold start, when the most popular cells are all
#: new).  At 2.5 a run simulates about 20 cells and keeps the worker busy
#: for a third to a half of the run; the median latency then swings from
#: 4 ms to 19 ms between seeds, because it depends on whether most store
#: hits arrive while a batch holds the interpreter.  At 2.25 and 45
#: requests/s misses and the latency tail double from one seed to the
#: next; at 2 the server saturates.
ZIPF_EXPONENT = 3.0

#: Seed of the popularity ranking and of the sequence of cells requested.
#: Cold cells cost from 0.02 s to 1 s each alone, so letting the run seed
#: pick which cells are cold would make a run's load hinge on a handful of
#: draws; the run seed drives the arrival times instead.
CATALOGUE_SEED = 0

#: Cells the server simulates one at a time after the traffic, for
#: ``cell_s``: the least popular ones of the catalogue, never requested
#: by the traffic.
SERVE_ALONE_CELLS = 6

#: A request is on time when answered within this many seconds of due.
LATENCY_LIMIT_S = 2.0

#: Poll period for pending cells, and how long past the last due time
#: unanswered requests are waited for before counting as failed.
POLL_S = 0.1
GRACE_S = 60.0


def _default_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _proc_figures(pid: int) -> dict:
    """Peak resident set (MB) and CPU seconds of a live process."""
    with open(f"/proc/{pid}/status") as fh:
        hwm = next(int(line.split()[1]) for line in fh
                   if line.startswith("VmHWM:"))
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return {"peak_rss_mb": hwm / 1024.0,
            "cpu_s": (int(fields[11]) + int(fields[12])) / ticks}


class ServeExplore:
    """Open-loop traffic against a fresh ``repro serve`` process."""

    name = "serve-explore"

    def __init__(self, scale: Scale, seed: int, reference: dict | None,
                 workdir: Path):
        self.scale = scale
        self.seed = seed
        # the service runs at plan seed 0 whatever the load seed
        self.reference = None if reference is None else reference["cells"]
        self.workdir = workdir
        self.server = None
        self._launches = 0

    # ------------------------------------------------------------ server
    def launch(self, traced: bool = False) -> float:
        """Start a server on an empty store; returns seconds until it
        listens."""
        self._launches += 1
        tag = f"s{self._launches}"
        args = ["serve", "--store", str(self.workdir / f"{tag}.store"),
                "--endpoints", str(self.scale.serve_endpoints),
                "--port", "0", "--jobs", "1", "--fidelity", "approx",
                "--metrics", str(self.workdir / f"{tag}.metrics.jsonl")]
        self.trace_path = self.workdir / f"{tag}.trace.json"
        cmd = ([sys.executable, str(HERE / "serve_traced.py"),
                str(self.trace_path), *args] if traced
               else [sys.executable, "-m", "repro", *args])
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        t0 = time.perf_counter()
        with open(self.workdir / f"{tag}.stderr", "w") as err:
            # a benchmark started in the background inherits an ignored
            # SIGINT; the server needs it back to shut down on stop()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                    stderr=err, env=env, cwd=ROOT,
                                    preexec_fn=_default_sigint)
        self.server = proc
        ready, _, _ = select.select([proc.stdout], [], [], 120.0)
        line = proc.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        hostport = line.split("listening on ", 1)[1].split()[0]
        host, port = hostport.rsplit(":", 1)
        self.host, self.port = host, int(port)
        self._warm_up()
        return time.perf_counter() - t0

    def _warm_up(self) -> None:
        """Run one cell from outside the catalogue, so the first catalogue
        cell does not also pay the server's first-batch start-up."""
        from repro.service.http import ServiceClient

        cell = dict(self.catalogue_json[0], tasks=8, routing="deterministic")
        status, doc = ServiceClient(self.host, self.port, 60.0).submit(
            [cell], tenant="warm-up", wait=True)
        if status != 200 or doc["results"][0].get("status") != "done":
            raise RuntimeError(f"server warm-up failed: {status} {doc}")

    def stop(self) -> None:
        """Stop the server (SIGINT, then SIGKILL) and wait for it."""
        proc, self.server = self.server, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()

    # -------------------------------------------------------------- work
    def setup(self, launches: int = 3) -> list[float]:
        """Build the catalogue and start the server ``launches`` times
        (each on an empty store); the last one stays up.  Returns every
        launch's start-up seconds.

        The benchmark process and every server it starts run on one CPU
        (the server inherits the affinity).  Across two CPUs each request
        wakes a thread on the other one; on a busy shared host that
        wake-up waits for the host to run the idle vCPU again, and the
        median latency swung from 2.2 ms to 8.6 ms between runs while
        the host-speed probe moved 2.9 times.  On one CPU it moved with
        the probe."""
        from repro.core.explorer import DesignSpaceExplorer
        from repro.service.protocol import cell_to_json

        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

        explorer = DesignSpaceExplorer(self.scale.serve_endpoints,
                                       fidelity="approx", seed=0,
                                       progress=False)
        keep = {s.label() for s in _figure_topologies(explorer, self.scale)}
        catalogue = [c for routing in SERVE_ROUTINGS
                     for c in explorer.plan(SERVE_WORKLOADS,
                                            routing=routing).cells
                     if c.topology.label() in keep and not (
                         routing == "ecmp" and (c.workload.name,
                                                c.topology.label())
                         in SERVE_SLOW_ECMP)]
        ranking = np.random.default_rng(CATALOGUE_SEED).permutation(
            len(catalogue))
        self.catalogue = [catalogue[i] for i in ranking]
        self.catalogue_json = [cell_to_json(c) for c in self.catalogue]
        times = []
        for i in range(launches):
            if self.server is not None:
                self.stop()
            times.append(self.launch())
        return times

    def schedule(self, seconds: float) -> tuple[np.ndarray, list[int]]:
        """Due times from the run seed; requested catalogue ranks from
        :data:`CATALOGUE_SEED`."""
        due = loadgen.poisson_arrivals(np.random.default_rng(self.seed),
                                       self.scale.serve_rate, seconds,
                                       self.scale.serve_min_requests)
        ranks = loadgen.zipf_ranks(np.random.default_rng(CATALOGUE_SEED),
                                   due.shape[0], len(self.catalogue),
                                   ZIPF_EXPONENT)
        return due, ranks.tolist()

    def measure(self, seconds: float, replay=None,
                traced: bool = False) -> Measured:
        """Drive one server with the schedule and check its answers; the
        server is the one :meth:`setup` left up, or a fresh traced one."""
        if self.server is None or traced:
            self.stop()
            self.launch(traced=traced)
        out = Measured()
        out.extra["cells"] = []
        due, ranks = self.schedule(seconds)
        log, counters = self._drive(due, ranks, out)
        self.stop()
        out.window_s = max(d for d in log.done if d is not None)
        out.extra.update(log=log, counters=counters)
        return out

    def _drive(self, due, ranks, out: Measured):
        """Drive one server with ``due``/``ranks``; check its answers."""
        from repro.service.http import ServiceClient

        pid = self.server.pid
        client = ServiceClient(self.host, self.port, timeout=60.0)
        cpu0 = _proc_figures(pid)["cpu_s"]
        log = asyncio.run(loadgen.run_open_loop(
            client, due, [self.catalogue_json[r] for r in ranks],
            connections=os.cpu_count() or 1, poll_s=POLL_S,
            grace_s=GRACE_S))
        figures = _proc_figures(pid)
        out.extra.update(cpu_s=figures["cpu_s"] - cpu0,
                         peak_rss_mb=figures["peak_rss_mb"])
        counters = client.stats()["counters"]

        # check every distinct answered cell once, against the reference
        verdicts: dict[str, list[str]] = {}
        for i, rank in enumerate(ranks):
            digest = log.digest[i]
            if not log.ok[i] or digest in verdicts:
                continue
            record = self._check(rank, *client.result(digest))
            verdicts[digest] = record["problems"]
            out.extra["cells"].append(record)
        for i in range(len(log)):
            problems = (verdicts.get(log.digest[i], []) if log.ok[i]
                        else ["error, refusal or no answer"])
            out.records.append({"request": len(out.records),
                                "problems": problems})

        # cells never requested above, one at a time, each alone in its
        # batch: the cells of the traffic share batches, routes and
        # topology builds by arrival time, so their seconds follow the
        # seed; these do not
        out.extra["alone"] = []
        requested = set(ranks)
        alone = [r for r in reversed(range(len(self.catalogue)))
                 if r not in requested][:SERVE_ALONE_CELLS]
        for rank in alone:
            status, doc = client.submit([self.catalogue_json[rank]],
                                        tenant="alone", wait=True)
            result = doc["results"][0] if status == 200 else {}
            record = self._check(rank, status, result)
            out.extra["alone"].append(record)
            out.records.append({"request": len(out.records),
                                "problems": record["problems"]})
        return log, counters

    def _check(self, rank: int, status: int, doc: dict) -> dict:
        """The record of catalogue cell ``rank`` from its result document,
        checked against the reference."""
        cell = self.catalogue[rank]
        label = cell.topology.label()
        if status != 200 or doc.get("status") != "done":
            return {"workload": cell.workload.name, "topology": label,
                    "routing": cell.routing,
                    "problems": [f"result returned {status}"]}
        rec = doc["record"]
        record = _record(cell.workload.name, label, "approx", cell.routing,
                         dict(rec, completed=True), rec["wall_seconds"])
        key = cellmod.cell_key(cell.workload.name, label, "approx",
                               cell.routing)
        entry = (self.reference or {}).get(key, rec)
        record["completed"] = rec["num_flows"] == entry["num_flows"]
        record["problems"] = cellmod.check_cell(record, self.reference, key)
        return record
