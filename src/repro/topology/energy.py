"""Energy estimation for workloads on a topology (paper future work).

The paper's conclusions list "a revamp of our simulation tools so to be
able to perform energy estimation at the scale we are interested in" as
future work.  This module provides that estimation on top of the static
analyser: energy splits into

* **dynamic** energy — every bit pays a per-traversal cost on each link it
  crosses (transceiver + SerDes) and through each switch (buffering +
  crossbar), taken from the per-link byte loads of a
  :class:`~repro.engine.results.LinkLoadReport`;
* **static** energy — idle power of the QFDBs and upper-tier switches
  integrated over the workload's duration, with the switch/QFDB power
  ratio matching the calibrated Table 2 cost model (switch = 0.25 QFDB).

Default coefficients are representative of 10 Gbps FPGA transceivers and
embedded-class boards; every coefficient is a constructor parameter so the
energy ablation bench can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.results import LinkLoadReport
from repro.errors import ConfigError
from repro.topology.base import Topology


@dataclass(frozen=True)
class EnergyModel:
    """Linear energy model: joules per bit-hop plus idle watts."""

    #: Dynamic energy per bit per link traversal (transceiver pair).
    link_energy_per_bit: float = 15e-12
    #: Dynamic energy per bit through a switch (buffers + crossbar).
    switch_energy_per_bit: float = 20e-12
    #: Idle power of one QFDB (4x Zynq Ultrascale+ board), watts.
    qfdb_idle_power: float = 120.0
    #: Idle power of one upper-tier switch, watts (0.25 x QFDB, matching
    #: the Table 2 power calibration).
    switch_idle_power: float = 30.0

    def __post_init__(self) -> None:
        if min(self.link_energy_per_bit, self.switch_energy_per_bit,
               self.qfdb_idle_power, self.switch_idle_power) < 0:
            raise ConfigError("energy coefficients must be non-negative")


@dataclass(frozen=True)
class EnergyReport:
    """Energy breakdown of one workload execution."""

    dynamic_joules: float
    static_joules: float
    duration: float
    bits_delivered: float

    @property
    def total_joules(self) -> float:
        return self.dynamic_joules + self.static_joules

    @property
    def joules_per_bit(self) -> float:
        """Total energy divided by delivered payload bits."""
        if self.bits_delivered <= 0:
            return 0.0
        return self.total_joules / self.bits_delivered

    def summary(self) -> str:
        return (f"total={self.total_joules:.4g}J "
                f"(dynamic={self.dynamic_joules:.4g}J, "
                f"static={self.static_joules:.4g}J) "
                f"over {self.duration:.4g}s, "
                f"{self.joules_per_bit * 1e12:.2f} pJ/bit")


def estimate(topology: Topology, report: LinkLoadReport, duration: float,
             *, model: EnergyModel | None = None,
             payload_bits: float | None = None) -> EnergyReport:
    """Estimate the energy of a workload execution.

    Parameters
    ----------
    topology:
        The network the workload ran on (for device counts and vertex
        classification).
    report:
        Static link-load analysis of the same workload (bits per link).
    duration:
        Execution time in seconds (use the dynamic simulation's makespan).
    model:
        Energy coefficients; defaults are 10 Gbps-transceiver class.
    payload_bits:
        Delivered payload for the J/bit metric; defaults to the total NIC
        consumption-side traffic.
    """
    if duration < 0:
        raise ConfigError("duration must be non-negative")
    model = model or EnergyModel()

    num_ep = topology.num_endpoints
    switch_lo = num_ep
    switch_hi = num_ep + topology.num_switches
    srcs = topology.links.sources
    dsts = topology.links.destinations

    link_bits = 0.0
    switch_bits = 0.0
    for lid in range(topology.links.num_links):
        bits = float(report.loads[lid])
        if bits == 0.0:
            continue
        link_bits += bits
        # bits entering a switch pay the crossbar cost there
        if switch_lo <= dsts[lid] < switch_hi:
            switch_bits += bits
        _ = srcs  # (sources kept for symmetry / future per-device accounting)

    dynamic = (link_bits * model.link_energy_per_bit
               + switch_bits * model.switch_energy_per_bit)
    static = duration * (num_ep * model.qfdb_idle_power
                         + topology.num_switches * model.switch_idle_power)
    if payload_bits is None:
        payload_bits = float(report.loads[topology.consumption_links].sum())
    return EnergyReport(dynamic_joules=dynamic, static_joules=static,
                        duration=duration, bits_delivered=payload_bits)


def compare(topologies: dict[str, Topology], flows, *,
            model: EnergyModel | None = None,
            fidelity: str = "approx") -> dict[str, EnergyReport]:
    """Energy of one workload on several topologies (convenience driver).

    Runs the dynamic simulation for the duration and the static analyser
    for the loads, then applies the model.  Returns reports keyed like the
    input dict.
    """
    from repro.engine import RouteCache, analyze, simulate

    out: dict[str, EnergyReport] = {}
    for label, topo in topologies.items():
        # the dynamic run and the static pass route the same pairs on the
        # same machine; one shared store routes each pair once
        route_cache = RouteCache()
        sim = simulate(topo, flows, fidelity=fidelity,
                       route_cache=route_cache)
        loads = analyze(topo, flows, route_cache=route_cache)
        out[label] = estimate(topo, loads, sim.makespan, model=model)
    return out
