"""Cost and power overhead model (paper Table 2).

The paper estimates the overhead of the upper-tier switches relative to a
system that only uses the hard-wired torus.  Back-solving its Table 2
percentages against its switch counts gives an exactly linear model:

* one upper-tier switch costs **0.75** of a QFDB,
* one upper-tier switch consumes **0.25** of a QFDB's power

(e.g. the full fattree: ``9216 * 0.75 / 131072 = 5.27%`` cost and
``9216 * 0.25 / 131072 = 1.76%`` power — the exact reference values the
paper prints).  The model is parameterised so other assumptions can be
explored in the ablation benches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class CostModel:
    """Linear overhead model, in units of one QFDB's cost/power."""

    switch_cost: float = 0.75
    switch_power: float = 0.25

    def __post_init__(self) -> None:
        if self.switch_cost < 0 or self.switch_power < 0:
            raise ConfigError("cost/power coefficients must be non-negative")

    def cost_increase(self, num_switches: int, num_endpoints: int) -> float:
        """Fractional cost overhead of the upper tier vs the bare torus."""
        if num_endpoints <= 0:
            raise ConfigError("need a positive endpoint count")
        return num_switches * self.switch_cost / num_endpoints

    def power_increase(self, num_switches: int, num_endpoints: int) -> float:
        """Fractional power overhead of the upper tier vs the bare torus."""
        if num_endpoints <= 0:
            raise ConfigError("need a positive endpoint count")
        return num_switches * self.switch_power / num_endpoints


@dataclass(frozen=True)
class OverheadRow:
    """One row of Table 2."""

    label: str
    switches: int
    cost_increase: float
    power_increase: float

    def formatted(self) -> str:
        return (f"{self.label:>12} {self.switches:>8} "
                f"{self.cost_increase * 100:>7.2f}% {self.power_increase * 100:>7.2f}%")


def overhead_row(label: str, num_switches: int, num_endpoints: int,
                 model: CostModel | None = None) -> OverheadRow:
    """Evaluate the model for one configuration."""
    model = model or CostModel()
    return OverheadRow(
        label=label,
        switches=num_switches,
        cost_increase=model.cost_increase(num_switches, num_endpoints),
        power_increase=model.power_increase(num_switches, num_endpoints),
    )


def fattree_switch_count(ports: int, stages: int = 3) -> int:
    """Planned switch count of the upper-tier fattree for ``ports`` uplinks."""
    from repro.topology.fattree import FatTreeFabric
    from repro.topology.planner import fattree_arities

    return FatTreeFabric(fattree_arities(ports, stages)).num_switches


def ghc_switch_count(ports: int, ports_per_switch: int = 16,
                     dims: int = 4) -> int:
    """Planned switch count of the upper-tier GHC for ``ports`` uplinks."""
    from repro.topology.ghc import GHCFabric

    return GHCFabric.for_ports(ports, ports_per_switch, dims).num_switches


def upper_tier_switches(family: str, num_endpoints: int,
                        u: int | None = None) -> int:
    """Planned upper-tier switch count of any evaluated family.

    The cost/power objectives are a pure function of the design point —
    no topology build required — so Table 2 and the search optimizer share
    this planner-only helper.  The bare torus has no upper tier.
    """
    if family == "torus":
        return 0
    if family == "fattree":
        return fattree_switch_count(num_endpoints)
    if family in ("nesttree", "nestghc"):
        if u is None or num_endpoints % u:
            raise ConfigError(
                f"{family}: uplink density u={u!r} must divide "
                f"{num_endpoints} endpoints")
        ports = num_endpoints // u
        if family == "nestghc":
            return ghc_switch_count(ports)
        return fattree_switch_count(ports)
    raise ConfigError(f"no upper-tier switch planner for family {family!r}")
