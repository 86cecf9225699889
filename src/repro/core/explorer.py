"""Design-space exploration driver (the paper's Section 5 sweeps).

:class:`DesignSpaceExplorer` owns the cross product behind Figures 4 and 5:
every hybrid design point (t, u) for both NestGHC and NestTree, plus the
Fattree and Torus3D baselines, against any list of workloads.  Topologies
are built once and reused across workloads; workloads are built once and
replayed across topologies (flows are task-indexed, so a placement adapts
them to each machine).
"""

from __future__ import annotations

import csv
import io
import re
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.core.config import (DEFAULT_ENDPOINTS, DEFAULT_QUADRATIC_TASKS,
                               PAPER_CONFIGS, TopologySpec, WorkloadSpec,
                               baseline_specs, hybrid_specs,
                               partition_tileable)
from repro.errors import ConfigError
from repro.topology.base import Topology

#: Workloads whose flow counts grow quadratically with the task count; they
#: run with a capped task set (see DESIGN.md substitutions).
QUADRATIC_WORKLOADS = ("mapreduce", "nbodies")

#: Columns of :meth:`ResultTable.to_csv`, in order.
CSV_COLUMNS = ("workload", "topology", "family", "t", "u", "makespan_s",
               "num_flows", "events", "reallocations", "wall_s", "faults",
               "routing")

#: A fault fingerprint as :meth:`ResultTable.to_csv` writes it.
_FAULTS = re.compile(r"(?P<cables>\d+)c\+(?P<uplinks>\d+)u@s(?P<seed>-?\d+)")

#: Placement policy for capped workloads.  The ring workload runs under a
#: fragmented (random) allocation — INRFlow models allocation policies, and
#: a rank-aligned ring would trivially hand the torus a perfect-locality
#: mapping no real scheduler guarantees; everything else spreads evenly.
PLACEMENT_POLICY = {"nbodies": "random"}


def workload_spec_for(name: str, endpoints: int, *,
                      quadratic_tasks: int = DEFAULT_QUADRATIC_TASKS
                      ) -> WorkloadSpec:
    """Default spec for a workload name (task caps per DESIGN.md).

    Shared by the explorer and the search subsystem so both apply the same
    quadratic-workload task caps to a sweep cell.
    """
    if name in QUADRATIC_WORKLOADS:
        return WorkloadSpec(name, tasks=min(endpoints, quadratic_tasks))
    return WorkloadSpec(name)


@dataclass(frozen=True)
class RunRecord:
    """One simulated (workload, topology) cell."""

    workload: str
    topology: str     # label, e.g. "nesttree(2,4)" or "fattree"
    family: str
    t: int | None
    u: int | None
    makespan: float
    num_flows: int
    events: int
    reallocations: int
    wall_seconds: float
    #: Fault fingerprint ({"cables": ..., "uplinks": ..., "seed": ...})
    #: when the cell ran on a degraded network; None for a healthy run.
    faults: dict | None = None
    #: Routing policy the cell simulated under (see repro.routing.policy).
    routing: str = "deterministic"
    #: Transient-timeline fingerprint (TimelineSpec.fingerprint()) when the
    #: cell ran under a fault timeline; None for static/healthy cells.
    timeline: dict | None = None
    #: Recovery counters of the fault-timeline run (result.transient);
    #: None unless the cell ran under a fault timeline.
    transient: dict | None = None


@dataclass
class ResultTable:
    """All cells of one sweep, with normalisation helpers."""

    endpoints: int
    fidelity: str
    records: list[RunRecord] = field(default_factory=list)

    def add(self, record: RunRecord) -> None:
        self.records.append(record)

    def workloads(self) -> list[str]:
        seen: dict[str, None] = {}
        for r in self.records:
            seen.setdefault(r.workload, None)
        return list(seen)

    def cell(self, workload: str, topology: str) -> RunRecord:
        for r in self.records:
            if r.workload == workload and r.topology == topology:
                return r
        raise KeyError(f"no record for ({workload}, {topology})")

    def normalised(self, workload: str, *, reference: str = "fattree"
                   ) -> dict[str, float]:
        """Makespans of one workload divided by the reference topology's.

        The paper's figures plot normalised execution time; the plots show
        flat Fattree/Torus3D series across the x-axis, i.e. a per-workload
        constant — we normalise to the Fattree baseline.
        """
        ref = self.cell(workload, reference).makespan
        if ref <= 0:
            raise ConfigError(f"reference makespan for {workload} is zero")
        return {r.topology: r.makespan / ref
                for r in self.records if r.workload == workload}

    def to_csv(self) -> str:
        """The records as CSV text, one row each under :data:`CSV_COLUMNS`.

        Written through :mod:`csv`, so a label holding commas (every
        hybrid's, e.g. ``nestghc(2,8)``) is quoted.
        """
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in self.records:
            if r.faults:
                faults = (f"{r.faults['cables']}c+{r.faults['uplinks']}u"
                          f"@s{r.faults['seed']}")
            else:
                faults = ""
            writer.writerow((
                r.workload, r.topology, r.family,
                "" if r.t is None else r.t, "" if r.u is None else r.u,
                repr(r.makespan), r.num_flows, r.events, r.reallocations,
                f"{r.wall_seconds:.3f}", faults, r.routing))
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str, endpoints: int,
                 fidelity: str = "approx") -> "ResultTable":
        """The table :meth:`to_csv` wrote, read back.

        Also reads two older layouts: rows whose hybrid labels were
        written unquoted (a label's commas split it over several
        fields, rejoined here), and the 10-column header without
        ``faults`` and ``routing`` (healthy, deterministic cells).
        Timelines and recovery counters are not in the CSV and read back
        as ``None``; wall seconds keep their three decimals.
        """
        rows = csv.reader(io.StringIO(text))
        header = next(rows, None)
        if header is None or tuple(header) not in (CSV_COLUMNS,
                                                   CSV_COLUMNS[:10]):
            raise ConfigError(f"not a result-table CSV header: {header}")
        table = cls(endpoints=endpoints, fidelity=fidelity)
        for line, row in enumerate(rows, start=2):
            extra = len(row) - len(header)
            if extra < 0:
                raise ConfigError(f"CSV line {line} has {len(row)} fields, "
                                  f"expected {len(header)}")
            # an unquoted label spans 1 + extra fields
            row = [row[0], ",".join(row[1:2 + extra]), *row[2 + extra:]]
            cell = dict(zip(header, row))
            faults = None
            if cell.get("faults"):
                match = _FAULTS.fullmatch(cell["faults"])
                if match is None:
                    raise ConfigError(f"CSV line {line}: bad faults field "
                                      f"{cell['faults']!r}")
                faults = {key: int(value)
                          for key, value in match.groupdict().items()}
            table.add(RunRecord(
                workload=cell["workload"], topology=cell["topology"],
                family=cell["family"],
                t=int(cell["t"]) if cell["t"] else None,
                u=int(cell["u"]) if cell["u"] else None,
                makespan=float(cell["makespan_s"]),
                num_flows=int(cell["num_flows"]),
                events=int(cell["events"]),
                reallocations=int(cell["reallocations"]),
                wall_seconds=float(cell["wall_s"]), faults=faults,
                routing=cell.get("routing") or "deterministic"))
        return table


class DesignSpaceExplorer:
    """Builds and runs the paper's topology x workload cross product."""

    def __init__(self, endpoints: int = DEFAULT_ENDPOINTS, *,
                 configs: Sequence[tuple[int, int]] = PAPER_CONFIGS,
                 fidelity: str = "approx",
                 quadratic_tasks: int = DEFAULT_QUADRATIC_TASKS,
                 seed: int = 0,
                 progress: bool = False) -> None:
        self.endpoints = endpoints
        # design points whose subtorus does not tile the system are skipped
        # (e.g. t=8 needs at least 512 endpoints)
        self.configs, self.skipped_configs = partition_tileable(
            endpoints, configs)
        self.fidelity = fidelity
        self.quadratic_tasks = quadratic_tasks
        self.seed = seed
        self.progress = progress
        self._topologies: dict[str, Topology] = {}

    # -------------------------------------------------------------- topology
    def topology_specs(self) -> list[TopologySpec]:
        return hybrid_specs(self.configs) + baseline_specs()

    def topology(self, spec: TopologySpec) -> Topology:
        """Build (or fetch from cache) the topology for a spec."""
        label = spec.label()
        if label not in self._topologies:
            self._log(f"building {label} @ {self.endpoints} endpoints")
            self._topologies[label] = spec.build(self.endpoints)
        return self._topologies[label]

    # -------------------------------------------------------------- workload
    def workload_spec(self, name: str) -> WorkloadSpec:
        """Default spec for a workload name (task caps per DESIGN.md)."""
        return workload_spec_for(name, self.endpoints,
                                 quadratic_tasks=self.quadratic_tasks)

    # ------------------------------------------------------------------ plan
    def plan(self, workload_names: Iterable[str], *,
             workload_params: dict[str, dict] | None = None,
             fail_links: int = 0, fail_uplinks: int = 0,
             fail_seed: int = 0,
             routing: str = "deterministic"):
        """The sweep plan for these workloads (workload-major cell order).

        ``fail_links``/``fail_uplinks``/``fail_seed`` inject reproducible
        faults into every cell; uplink-port faults only apply to the hybrid
        families (the baselines have no uplink ports, so their cells run
        with cable faults only).  ``routing`` selects the candidate-set
        policy every cell simulates under (see :mod:`repro.routing.policy`).
        """
        from repro.core.config import HYBRID_FAMILIES
        from repro.routing import validate_policy
        from repro.sweep import SweepCell, SweepPlan

        routing = validate_policy(routing)
        params = workload_params or {}
        cells = []
        for wname in workload_names:
            spec = self.workload_spec(wname)
            if wname in params:
                spec = WorkloadSpec(spec.name, spec.tasks, params[wname])
            policy = PLACEMENT_POLICY.get(wname, "spread")
            for tspec in self.topology_specs():
                uplinks = (fail_uplinks if tspec.family in HYBRID_FAMILIES
                           else 0)
                cells.append(SweepCell(workload=spec, topology=tspec,
                                       placement=policy,
                                       fail_links=fail_links,
                                       fail_uplinks=uplinks,
                                       fail_seed=fail_seed,
                                       routing=routing))
        return SweepPlan(endpoints=self.endpoints, fidelity=self.fidelity,
                         seed=self.seed, cells=tuple(cells))

    # ------------------------------------------------------------------- run
    def run(self, workload_names: Iterable[str], *,
            workload_params: dict[str, dict] | None = None,
            jobs: int = 1,
            checkpoint: str | None = None,
            resume: bool = False,
            fail_links: int = 0, fail_uplinks: int = 0, fail_seed: int = 0,
            keep_going: bool = False,
            cell_timeout: float | None = None,
            metrics: str | None = None,
            routing: str = "deterministic") -> ResultTable:
        """Simulate every workload on every topology of the design space.

        ``jobs`` > 1 fans the sweep out over a process pool (one topology
        group per worker at a time); ``checkpoint`` names a result-store
        directory that receives each cell as it completes, and
        ``resume=True`` skips the cells already stored there.  Serial and
        parallel runs return identical tables (wall-clock fields aside).
        The ``fail_*`` knobs run the whole sweep on a degraded network
        (see :meth:`plan`); ``keep_going`` and ``cell_timeout`` harden
        long sweeps (see :func:`repro.sweep.run_sweep`).  ``metrics``
        names a JSONL file that receives one schema-versioned
        observability record per cell (instrumented engine runs; see
        ``docs/observability.md``).
        """
        from repro.sweep import run_sweep

        if self.skipped_configs:
            self._log(f"skipping design points that do not tile "
                      f"{self.endpoints} endpoints: {self.skipped_configs}")
        plan = self.plan(workload_names, workload_params=workload_params,
                         fail_links=fail_links, fail_uplinks=fail_uplinks,
                         fail_seed=fail_seed, routing=routing)
        records = run_sweep(
            plan, jobs=jobs, checkpoint=checkpoint, resume=resume,
            log=self._log if self.progress else None,
            topology_provider=self.topology,
            keep_going=keep_going, cell_timeout=cell_timeout,
            metrics_path=metrics)
        table = ResultTable(endpoints=self.endpoints, fidelity=self.fidelity)
        for record in records:
            table.add(record)
        return table

    def _log(self, msg: str) -> None:
        if self.progress:
            print(f"[explorer] {msg}", file=sys.stderr, flush=True)
