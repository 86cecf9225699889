"""Result records returned by the simulation and analysis modes."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one dynamic flow-level simulation.

    ``makespan`` — the workload's completion time in seconds — is the
    quantity behind the paper's Figures 4 and 5 (there reported normalised
    per workload).
    """

    makespan: float
    completion_times: np.ndarray   # per-flow, seconds
    start_times: np.ndarray        # per-flow injection times, seconds
    fidelity: str
    num_flows: int
    reallocations: int
    events: int
    total_bits: float
    #: Schema-versioned observability snapshot (tier link accounting,
    #: allocator statistics, span timers) when the run was instrumented
    #: with a :class:`repro.obs.MetricsCollector`; ``None`` otherwise.
    metrics: dict | None = None
    #: Which bandwidth allocator ran and how its work split
    #: (``{"allocator", "full_passes", "warm_fills", "relevel_fills",
    #: "fill_rounds"}``; ``warm_fills`` is always 0, ``fill_rounds``
    #: counts the rounds of the water-level loop, each resolving one or
    #: more of its iterations);
    #: ``None`` for a run that never allocated (empty flow set).
    allocator_stats: dict | None = None
    #: Transient-fault recovery counters (``fault_events``,
    #: ``flows_rerouted``, ``flows_parked``, ``flows_recovered``,
    #: ``rerouted_bits``, ``recovery_seconds``) when the run carried a
    #: non-empty :class:`~repro.topology.timeline.FaultTimeline`;
    #: ``None`` for every other run.
    transient: dict | None = None

    @property
    def aggregate_throughput(self) -> float:
        """Delivered bits per second over the whole run."""
        return self.total_bits / self.makespan if self.makespan > 0 else 0.0

    @property
    def flow_durations(self) -> np.ndarray:
        """Per-flow transfer times (completion minus injection)."""
        return self.completion_times - self.start_times

    def concurrency_profile(self, samples: int = 100) -> np.ndarray:
        """Number of in-flight flows at ``samples`` evenly spaced instants.

        Distinguishes the paper's heavy workloads (large fraction of
        endpoints injecting at once) from the causality-limited light ones.
        """
        if self.num_flows == 0 or self.makespan <= 0:
            return np.zeros(samples, dtype=np.int64)
        ts = np.linspace(0.0, self.makespan, samples, endpoint=False)
        starts = np.sort(self.start_times)
        ends = np.sort(self.completion_times)
        return (np.searchsorted(starts, ts, side="right")
                - np.searchsorted(ends, ts, side="right"))

    def summary(self) -> str:
        return (f"makespan={self.makespan:.6g}s flows={self.num_flows} "
                f"events={self.events} reallocs={self.reallocations} "
                f"fidelity={self.fidelity}")


@dataclass(frozen=True)
class LinkLoadReport:
    """Outcome of the static analysis mode (application-independent).

    Loads are in bits routed over each directed link if the whole workload
    were injected at once; ``bottleneck_time`` is the resulting
    completion-time lower bound.
    """

    loads: np.ndarray              # bits per directed link
    capacities: np.ndarray         # bits/s per directed link
    bottleneck_time: float
    flows_routed: int
    tier_loads: dict[str, float] = field(default_factory=dict)

    @property
    def max_load(self) -> float:
        return float(self.loads.max()) if self.loads.size else 0.0

    @property
    def mean_load(self) -> float:
        return float(self.loads.mean()) if self.loads.size else 0.0

    def utilisation_percentiles(self, qs=(50, 90, 99, 100)) -> dict[int, float]:
        """Drain-time percentiles (load/capacity) across links."""
        drain = self.loads / self.capacities
        return {int(q): float(np.percentile(drain, q)) for q in qs}

    def summary(self) -> str:
        parts = [f"bottleneck={self.bottleneck_time:.6g}s",
                 f"flows={self.flows_routed}"]
        parts += [f"{k}={v:.3g}b" for k, v in self.tier_loads.items()]
        return " ".join(parts)
