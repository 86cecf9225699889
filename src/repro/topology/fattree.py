"""Generalised k-ary n-tree (fattree) fabric and endpoint topology.

The fabric is reusable: the standalone :class:`FatTreeTopology` attaches one
endpoint per leaf port (the paper's Fattree baseline), while
:class:`~repro.topology.nesttree.NestTree` attaches *uplinked QFDBs* to the
same ports.  The switch-identity scheme and the minimal UP*/DOWN* routing
rule are the thin tree's (:mod:`repro.topology.thintree`) with full
up-arities.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import TopologyError
from repro.topology.base import FabricTopology
from repro.topology.planner import fattree_arities
from repro.topology.thintree import ThinTreeFabric
from repro.units import DEFAULT_LINK_CAPACITY


class FatTreeFabric(ThinTreeFabric):
    """Switch-level structure of a generalised fattree.

    The thin tree whose up-arities equal its down-arities: no
    over-subscription, as in the paper.  A level-``l`` switch is
    ``(l, subtree, digits)``: ``subtree = port // (k_1 * ... * k_l)``, and
    ``digits`` in ``k_1 x ... x k_{l-1}`` picks one of the subtree's
    switches; up-port ``x`` leads to ``(l + 1, subtree // k_{l+1},
    digits + (x,))``.
    """

    def __init__(self, arities: Sequence[int]) -> None:
        arities = tuple(int(k) for k in arities)
        if not arities or any(k < 2 for k in arities):
            raise TopologyError(f"invalid fattree arities {arities}")
        super().__init__(arities, arities[:-1])
        self.arities = arities


class FatTreeTopology(FabricTopology):
    """The paper's Fattree baseline: one endpoint per leaf port."""

    name = "fattree"

    def __init__(self, arities: Sequence[int], *,
                 link_capacity: float = DEFAULT_LINK_CAPACITY,
                 nic_capacity: float | None = None) -> None:
        super().__init__(FatTreeFabric(arities), link_capacity, nic_capacity)

    @classmethod
    def for_ports(cls, ports: int, stages: int = 3, **kwargs) -> "FatTreeTopology":
        """Build with planner-chosen arities (paper rule at full scale)."""
        return cls(fattree_arities(ports, stages), **kwargs)
