"""Multi-fidelity evaluation ladder for design candidates.

Three rungs, each two-plus orders of magnitude cheaper than the next:

* **rank 0 — static proxies** (free): Table-1 style routed average
  distance plus, per workload, the static analyzer's bottleneck bound and
  link-load imbalance (:func:`repro.engine.static.load_imbalance`), all at
  the pilot scale.  No simulation, topologies built once per label and
  cached for the whole search run.
* **rank 1 — pilot simulation**: full flow simulation at
  ``pilot_endpoints`` (a small multiple of every subtorus volume).
* **rank 2 — full fidelity**: flow simulation at the target scale.

Ranks 1 and 2 are executed as ordinary :class:`~repro.sweep.plan.SweepPlan`
runs through :func:`repro.sweep.runner.run_sweep`, so ``--jobs``
parallelism, checkpointing/resume, per-cell timeouts and fault injection
all come for free; both ranks checkpoint into one result-store directory
(their scales differ, so their cells have distinct digests).  When the
pilot scale equals the target scale the ladder *collapses*: rank 1 is
skipped entirely rather than paying the identical simulation twice.

The performance objective is always normalised against the fattree
reference measured at the same rung, so numbers are comparable across
rungs and against the paper's figures.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.config import (DEFAULT_QUADRATIC_TASKS, TopologySpec,
                               baseline_specs)
from repro.core.explorer import PLACEMENT_POLICY, workload_spec_for
from repro.errors import ConfigError
from repro.search.pareto import Objectives
from repro.search.space import Candidate
from repro.topology.cost import CostModel, upper_tier_switches

#: Default pilot scale: the smallest system every searchable subtorus side
#: (2, 4, 8) tiles.
DEFAULT_PILOT_ENDPOINTS = 512

#: Default search workload set: a collective (lower-tier bound), a stencil
#: with off-subtorus neighbours, and an adversarial permutation (upper-tier
#: bound).  A single workload rewards whichever tier it happens to stress;
#: the mix makes the makespan objective discriminate across the whole
#: design space.
DEFAULT_WORKLOADS = ("allreduce", "nearneighbors", "permutation")

#: Rank numbers of the ladder, in promotion order.
RANK_STATIC, RANK_PILOT, RANK_FULL = 0, 1, 2

#: Rank-0 proxy weights: routed average distance, static bottleneck bound,
#: link-load imbalance (each normalised to the fattree reference).
STATIC_WEIGHTS = {"distance": 0.4, "bottleneck": 0.4, "imbalance": 0.2}


def _ratio(value: float, reference: float) -> float:
    """value/reference with a deterministic zero-reference convention."""
    if reference > 0:
        return value / reference
    return 1.0 if value == 0 else math.inf


@dataclass(frozen=True)
class FidelityLadder:
    """The scales and workload set of one search run."""

    endpoints: int
    pilot_endpoints: int
    workloads: tuple[str, ...]
    fidelity: str = "approx"
    seed: int = 0
    quadratic_tasks: int = DEFAULT_QUADRATIC_TASKS
    static_pairs: int = 2_000

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ConfigError("the search needs at least one workload")
        if self.pilot_endpoints > self.endpoints:
            raise ConfigError(
                f"pilot scale {self.pilot_endpoints} exceeds the target "
                f"scale {self.endpoints}")

    @classmethod
    def for_scale(cls, endpoints: int, workloads, *,
                  pilot_endpoints: int | None = None, **kw) -> FidelityLadder:
        if pilot_endpoints is None:
            pilot_endpoints = min(endpoints, DEFAULT_PILOT_ENDPOINTS)
        return cls(endpoints=endpoints, pilot_endpoints=pilot_endpoints,
                   workloads=tuple(workloads), **kw)

    def collapsed(self) -> bool:
        """Pilot == target scale: rank 1 would duplicate rank 2."""
        return self.pilot_endpoints >= self.endpoints

    def rank_scale(self, rank: int) -> int:
        return self.endpoints if rank == RANK_FULL else self.pilot_endpoints

    def sim_ranks(self) -> tuple[int, ...]:
        return (RANK_FULL,) if self.collapsed() else (RANK_PILOT, RANK_FULL)


@dataclass(frozen=True)
class StaticMetrics:
    """Cached rank-0 measurements of one (healthy) topology."""

    avg_distance: float
    diameter: int
    bottleneck: dict[str, float]   # workload -> static lower bound (s)
    imbalance: dict[str, float]    # workload -> max/mean link drain


@dataclass
class LadderEvaluator:
    """Evaluates candidates at every rung, with rank-0 caching.

    The static cache is keyed by *healthy topology label*, so a candidate
    re-proposed by the random strategy — or proposed at a different fault
    level — never rebuilds a topology or recomputes ``analyze``;
    :attr:`static_cache_hits` counts the saves and the test suite asserts
    on it.  Simulation rungs go through :func:`repro.sweep.runner.run_sweep`
    with ``keep_going=True``: a candidate whose cell fails (e.g. a fault
    level that disconnects the machine) comes back as ``None`` —
    infeasible — instead of aborting the search.
    """

    ladder: FidelityLadder
    cost_model: CostModel = field(default_factory=CostModel)
    jobs: int = 1
    checkpoint: str | os.PathLike | None = None
    resume: bool = False
    cell_timeout: float | None = None
    metrics: str | os.PathLike | None = None
    log: Callable[[str], None] | None = None

    def __post_init__(self) -> None:
        self._static_cache: dict[str, StaticMetrics] = {}
        self.static_cache_hits = 0
        self.static_builds = 0
        self.sim_candidates = {RANK_PILOT: 0, RANK_FULL: 0}
        self.sim_cells = {RANK_PILOT: 0, RANK_FULL: 0}
        self._static_workloads: dict[str, tuple] | None = None
        self.reference_makespans: dict[int, dict[str, dict[str, float]]] = {}

    # ----------------------------------------------------------- objectives
    def cost_objectives(self, cand: Candidate) -> tuple[float, float, int]:
        """(cost overhead, power overhead, switch count) of a candidate.

        A pure function of the design at the *full* scale — the upper tier
        a design would ship with does not shrink at pilot fidelity.
        """
        switches = upper_tier_switches(cand.family, self.ladder.endpoints,
                                       cand.u)
        return (self.cost_model.cost_increase(switches,
                                              self.ladder.endpoints),
                self.cost_model.power_increase(switches,
                                               self.ladder.endpoints),
                switches)

    # --------------------------------------------------------------- rank 0
    def rank0(self, candidates: list[Candidate]
              ) -> dict[str, Objectives | None]:
        """Static-proxy objectives, keyed by candidate label.

        Fault levels share their healthy topology's cached metrics: the
        proxies rank designs, and a handful of failed cables does not move
        a design's *static* rank (the simulation rungs differentiate).
        """
        reference = self._static_metrics("fattree", baseline_specs()[0])
        out: dict[str, Objectives | None] = {}
        for cand in candidates:
            metrics = self._static_metrics(cand.topology_label(), cand.spec())
            terms = []
            for wname in self.ladder.workloads:
                terms.append(
                    STATIC_WEIGHTS["distance"]
                    * _ratio(metrics.avg_distance, reference.avg_distance)
                    + STATIC_WEIGHTS["bottleneck"]
                    * _ratio(metrics.bottleneck[wname],
                             reference.bottleneck[wname])
                    + STATIC_WEIGHTS["imbalance"]
                    * _ratio(metrics.imbalance[wname],
                             reference.imbalance[wname]))
            cost, power, _ = self.cost_objectives(cand)
            out[cand.label()] = Objectives(
                makespan=sum(terms) / len(terms), cost=cost, power=power)
        return out

    def _static_metrics(self, label: str, spec: TopologySpec) -> StaticMetrics:
        if label in self._static_cache:
            self.static_cache_hits += 1
            return self._static_cache[label]
        from repro.engine import RouteCache
        from repro.engine.static import analyze, load_imbalance
        from repro.topology.analysis import path_length_stats

        scale = self.ladder.pilot_endpoints
        self.static_builds += 1
        if self.log is not None:
            self.log(f"rank0: building {label} @ {scale} endpoints")
        topo = spec.build(scale)
        stats = path_length_stats(topo, max_pairs=self.ladder.static_pairs,
                                  seed=self.ladder.seed)
        bottleneck: dict[str, float] = {}
        imbalance: dict[str, float] = {}
        # one route store per topology, shared by every workload's static
        # pass
        route_cache = RouteCache()
        for wname, (flows, placement) in self._workload_inputs().items():
            report = analyze(topo, flows, placement=placement,
                             route_cache=route_cache)
            bottleneck[wname] = report.bottleneck_time
            imbalance[wname] = load_imbalance(topo, report)
        metrics = StaticMetrics(avg_distance=stats.average,
                                diameter=topo.routing_diameter(),
                                bottleneck=bottleneck, imbalance=imbalance)
        self._static_cache[label] = metrics
        return metrics

    def _workload_inputs(self) -> dict[str, tuple]:
        """Flows + placement per workload at the pilot scale, built once."""
        if self._static_workloads is None:
            from repro.mapping import placement as placement_mod

            scale = self.ladder.pilot_endpoints
            inputs: dict[str, tuple] = {}
            for wname in self.ladder.workloads:
                wspec = workload_spec_for(
                    wname, scale, quadratic_tasks=self.ladder.quadratic_tasks)
                flows = wspec.build(scale, seed=self.ladder.seed).build()
                tasks = wspec.resolve_tasks(scale)
                placement = None
                if tasks != scale:
                    policy = PLACEMENT_POLICY.get(wname, "spread")
                    placement = placement_mod.by_name(
                        policy, tasks, scale, seed=self.ladder.seed)
                inputs[wname] = (flows, placement)
            self._static_workloads = inputs
        return self._static_workloads

    # ----------------------------------------------------------- ranks 1, 2
    def simulate_rank(self, candidates: list[Candidate], rank: int
                      ) -> dict[str, Objectives | None]:
        """Flow-simulate candidates at a rung; ``None`` marks infeasible.

        One :class:`SweepPlan` covers every candidate plus the fattree and
        torus references, so the parallel runner groups cells by topology
        exactly as the figure sweeps do.
        """
        from repro.sweep import SweepCell, SweepPlan, run_sweep

        if rank not in (RANK_PILOT, RANK_FULL):
            raise ConfigError(f"not a simulation rank: {rank}")
        scale = self.ladder.rank_scale(rank)
        wspecs = {
            wname: workload_spec_for(
                wname, scale, quadratic_tasks=self.ladder.quadratic_tasks)
            for wname in self.ladder.workloads}
        cells = []
        for spec, fail_links, routing in self._cell_targets(candidates):
            for wname, wspec in wspecs.items():
                cells.append(SweepCell(
                    workload=wspec, topology=spec,
                    placement=PLACEMENT_POLICY.get(wname, "spread"),
                    fail_links=fail_links, fail_seed=self.ladder.seed,
                    routing=routing))
        plan = SweepPlan(endpoints=scale, fidelity=self.ladder.fidelity,
                         seed=self.ladder.seed, cells=tuple(cells))
        failures: dict[str, dict] = {}
        records = run_sweep(
            plan, jobs=self.jobs, checkpoint=self.checkpoint,
            resume=self.resume, log=self.log, keep_going=True,
            cell_timeout=self.cell_timeout, failures_out=failures,
            metrics_path=self._rank_metrics(rank))
        self.sim_candidates[rank] += len(candidates)
        self.sim_cells[rank] += len(cells)

        # makespans by (healthy topology label, failed cables, routing)
        makespans: dict[tuple[str, int, str], dict[str, float]] = {}
        for record in records:
            fail = record.faults["cables"] if record.faults else 0
            makespans.setdefault((record.topology, fail, record.routing),
                                 {})[record.workload] = record.makespan
        reference = makespans.get(("fattree", 0, "deterministic"), {})
        self.reference_makespans[rank] = {
            label: makespans.get((label, 0, "deterministic"), {})
            for label in ("fattree", "torus")}

        out: dict[str, Objectives | None] = {}
        for cand in candidates:
            mine = makespans.get(
                (cand.topology_label(), cand.fail_links, cand.routing), {})
            if any(w not in mine or w not in reference
                   for w in self.ladder.workloads):
                out[cand.label()] = None  # at least one cell failed
                continue
            norm = sum(_ratio(mine[w], reference[w])
                       for w in self.ladder.workloads) / len(
                           self.ladder.workloads)
            cost, power, _ = self.cost_objectives(cand)
            out[cand.label()] = Objectives(makespan=norm, cost=cost,
                                           power=power)
        return out

    def _cell_targets(self, candidates: list[Candidate]
                      ) -> list[tuple[TopologySpec, int, str]]:
        """Unique (spec, fail_links, routing) triples: candidates + both
        references (references always run the deterministic policy)."""
        targets: dict[tuple[str, int, str],
                      tuple[TopologySpec, int, str]] = {}
        for spec in baseline_specs():  # fattree reference + torus baseline
            targets[(spec.label(), 0, "deterministic")] = (
                spec, 0, "deterministic")
        for cand in candidates:
            key = (cand.topology_label(), cand.fail_links, cand.routing)
            targets.setdefault(
                key, (cand.spec(), cand.fail_links, cand.routing))
        return list(targets.values())

    def _rank_metrics(self, rank: int) -> str | None:
        if self.metrics is None:
            return None
        return f"{os.fspath(self.metrics)}.rank{rank}.metrics.jsonl"
