"""Sweep plans: the declarative unit of a design-space run.

A :class:`SweepPlan` is the full cross product of one sweep — every
``(workload, topology)`` cell plus the global knobs (endpoints, fidelity,
seed) that make each cell reproducible in isolation.  A cell's canonical
:meth:`SweepCell.fingerprint` plus :meth:`SweepPlan.meta` is its content
address in the result store (checkpoints and ``repro serve`` alike); the
stable string :meth:`SweepCell.key` names the cell within one run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro._version import __version__ as ENGINE_VERSION
from repro.core.config import TopologySpec, WorkloadSpec
from repro.errors import ConfigError
from repro.topology.timeline import TimelineSpec


@dataclass(frozen=True)
class SweepCell:
    """One ``(workload, topology)`` simulation of a sweep.

    ``placement`` names the task->endpoint policy applied when the workload
    runs fewer tasks than there are endpoints (the identity placement is
    used when the counts match).

    ``fail_links``/``fail_uplinks``/``fail_seed`` inject faults: the cell
    runs on a :class:`~repro.topology.degraded.DegradedTopology` wrapping
    the built topology with ``FaultSet.sample(cables=fail_links,
    uplinks=fail_uplinks, seed=fail_seed)``.  All three default to the
    healthy machine.

    ``routing`` selects the candidate-selection policy
    (:data:`repro.routing.ROUTING_POLICIES`); the default keeps the
    engine's single-path behaviour and pre-existing cell keys.

    ``timeline`` attaches a *transient* fault trace
    (:class:`~repro.topology.timeline.TimelineSpec`, built against the
    cell's topology at run time): the network degrades and heals mid-run
    and the record carries the recovery counters.  Mutually exclusive
    with the static fault knobs — a static set is just a timeline whose
    events all precede ``t=0``.
    """

    workload: WorkloadSpec
    topology: TopologySpec
    placement: str = "spread"
    fail_links: int = 0
    fail_uplinks: int = 0
    fail_seed: int = 0
    routing: str = "deterministic"
    timeline: TimelineSpec | None = None

    def __post_init__(self) -> None:
        if self.timeline is not None and self.has_faults():
            raise ConfigError(
                "a cell takes static faults or a transient timeline, not "
                "both; encode the static set as timeline events at t <= 0")

    def has_faults(self) -> bool:
        return bool(self.fail_links or self.fail_uplinks)

    def fault_fingerprint(self) -> dict | None:
        """Stable fault description; ``None`` when healthy."""
        if not self.has_faults():
            return None
        return {"cables": self.fail_links, "uplinks": self.fail_uplinks,
                "seed": self.fail_seed}

    def cache_key(self) -> str:
        """Route-cache partition: faulted routes never mix with healthy."""
        return f"{self.topology.label()}{self._fault_suffix()}"

    def _fault_suffix(self) -> str:
        if not self.has_faults():
            return ""  # healthy cells keep their pre-fault keys
        return (f"|faults({self.fail_links},{self.fail_uplinks},"
                f"s{self.fail_seed})")

    def _routing_suffix(self) -> str:
        if self.routing == "deterministic":
            return ""  # default-policy cells keep their pre-routing keys
        return f"|routing({self.routing})"

    def _timeline_suffix(self) -> str:
        if self.timeline is None:
            return ""  # static cells keep their pre-timeline keys
        return f"|{self.timeline.label()}"

    def _params_suffix(self) -> str:
        if not self.workload.params:
            return ""  # default-parameter cells keep their pre-params keys
        params = json.dumps(self.workload.params, sort_keys=True,
                            separators=(",", ":"))
        return f"|params{params}"

    def fingerprint(self) -> dict:
        """Canonical content description of this cell's simulation.

        The single fingerprint shared by every identity the cell has:
        the cell key (:meth:`key` is a stable string projection of the
        ``workload``/``tasks``/``topology``/``faults``/``routing``/
        ``timeline``/``workload_params`` entries) and the result store
        (which hashes this dict together with the plan globals into a
        content address, see :func:`repro.service.store.content_digest`).
        It additionally carries the fields the key deliberately omits:
        the placement policy (keys predate it and must stay
        byte-identical) and the engine version, so a store populated by
        one engine release never answers for another.  Workload params
        appear only when set, so default-parameter cells keep their
        digests.
        """
        fp = {
            "workload": self.workload.name,
            "tasks": self.workload.tasks,
            "topology": self.topology.label(),
            "placement": self.placement,
            "faults": self.fault_fingerprint(),
            "routing": self.routing,
            "timeline": (None if self.timeline is None
                         else self.timeline.fingerprint()),
            "engine": ENGINE_VERSION,
        }
        if self.workload.params:
            fp["workload_params"] = dict(self.workload.params)
        return fp

    def key(self) -> str:
        """Stable cell key (a projection of :meth:`fingerprint`).

        Includes the task count because the same workload name can run at
        different caps (``--quadratic-tasks``); a record written at one
        cap must not satisfy a sweep at another.  Includes the fault
        fingerprint for degraded cells so healthy and degraded runs never
        mix, the routing policy for non-default policies, and the
        workload params when any are set.
        """
        tasks = "all" if self.workload.tasks is None else self.workload.tasks
        return (f"{self.workload.name}@{tasks}|{self.topology.label()}"
                f"{self._fault_suffix()}{self._routing_suffix()}"
                f"{self._timeline_suffix()}{self._params_suffix()}")


@dataclass(frozen=True)
class SweepPlan:
    """Every cell of a sweep plus the globals each cell needs to run."""

    endpoints: int
    fidelity: str
    seed: int
    cells: tuple[SweepCell, ...]

    def meta(self) -> dict:
        """The plan globals folded into every cell's content digest."""
        return {"endpoints": self.endpoints, "fidelity": self.fidelity,
                "seed": self.seed}

    def pending(self, done: set[str] | dict) -> list[SweepCell]:
        """Cells whose keys are not in ``done``, in plan order."""
        return [c for c in self.cells if c.key() not in done]
