"""Generalised k-ary n-tree (fattree) fabric and endpoint topology.

The fabric is reusable: the standalone :class:`FatTreeTopology` attaches one
endpoint per leaf port (the paper's Fattree baseline), while
:class:`~repro.topology.nesttree.NestTree` attaches *uplinked QFDBs* to the
same ports.  See :mod:`repro.routing.updown` for the switch-identity scheme
and the minimal UP*/DOWN* routing rule.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import TopologyError
from repro.routing import updown, walks
from repro.topology.base import Topology, fabric_walks
from repro.topology.linktable import LinkTable
from repro.topology.planner import fattree_arities
from repro.units import DEFAULT_LINK_CAPACITY


class FatTreeFabric:
    """Switch-level structure of a generalised fattree.

    Local switch ids are dense in ``[0, num_switches)``, ordered by level and
    then by (subtree, intra-subtree digits).  The owner topology adds a
    vertex offset to obtain global vertex ids.
    """

    def __init__(self, arities: Sequence[int]) -> None:
        arities = tuple(int(k) for k in arities)
        if not arities or any(k < 2 for k in arities):
            raise TopologyError(f"invalid fattree arities {arities}")
        self.arities = arities
        self.num_ports = updown.leaf_count(arities)
        self.num_stages = len(arities)
        # subtree sizes K_l = k_1 * ... * k_l and per-level switch-id offsets
        self._group: list[int] = [1]
        for k in arities:
            self._group.append(self._group[-1] * k)
        self._level_offset: list[int] = [0, 0]  # 1-based levels
        for level in range(1, self.num_stages):
            self._level_offset.append(
                self._level_offset[level] + self.num_ports // arities[level - 1])
        self.num_switches = updown.switch_count(arities)

    # -------------------------------------------------------------- indexing
    def switch_index(self, sw: updown.Switch) -> int:
        """Dense local id of a switch."""
        per_subtree = self._group[sw.level - 1]  # k_1 * ... * k_{l-1}
        digit_value = 0
        for d, k in zip(reversed(sw.digits), reversed(self.arities[: sw.level - 1])):
            digit_value = digit_value * k + d
        return self._level_offset[sw.level] + sw.subtree * per_subtree + digit_value

    def port_switch(self, port: int) -> int:
        """Local id of the level-1 switch owning a leaf port."""
        if not 0 <= port < self.num_ports:
            raise TopologyError(f"fattree port {port} out of range")
        return port // self.arities[0]

    # ------------------------------------------------------------------ build
    def build_links(self, links: LinkTable, offset: int, capacity: float) -> None:
        """Register every duplex switch-to-switch link, ids offset by ``offset``."""
        for level in range(1, self.num_stages):
            k_up = self.arities[level - 1]       # up-ports of a level-l switch
            subtrees = self.num_ports // self._group[level]
            for subtree in range(subtrees):
                for digit_value in range(self._group[level - 1]):
                    digits = self._digits_of(digit_value, level)
                    lo = updown.Switch(level, subtree, digits)
                    for x in range(k_up):
                        hi = updown.Switch(level + 1,
                                           subtree // self.arities[level],
                                           digits + (x,))
                        links.add_duplex(offset + self.switch_index(lo),
                                         offset + self.switch_index(hi),
                                         capacity)

    def _digits_of(self, value: int, level: int) -> tuple[int, ...]:
        digits = []
        for k in self.arities[: level - 1]:
            digits.append(value % k)
            value //= k
        return tuple(digits)

    # ---------------------------------------------------------------- routing
    def port_path(self, src_port: int, dst_port: int) -> list[int]:
        """Local switch-id sequence between two distinct leaf ports."""
        if src_port == dst_port:
            raise TopologyError("no switch path between identical ports")
        a, b = self.port_switch(src_port), self.port_switch(dst_port)
        if a == b:
            return [a]
        switches = updown.switch_path(src_port, dst_port, self.arities)
        return [self.switch_index(s) for s in switches]

    def port_paths(self, src_port: int, dst_port: int) -> list[list[int]]:
        """All minimal switch-id walks (every NCA choice), deterministic first."""
        if src_port == dst_port:
            raise TopologyError("no switch path between identical ports")
        a, b = self.port_switch(src_port), self.port_switch(dst_port)
        if a == b:
            return [[a]]
        return [[self.switch_index(s) for s in walk]
                for walk in updown.switch_paths(src_port, dst_port, self.arities)]

    def port_path_batch(self, src_ports: np.ndarray,
                        dst_ports: np.ndarray) -> walks.CSR:
        """:meth:`port_path` for many distinct port pairs, as a CSR batch.

        The d-mod-k climb to the nearest common ancestor level ``m`` visits
        the level-``L`` switch of subtree ``src // K_L`` whose digits are
        the destination's low ``L - 1`` digits; the forced descent visits
        the level-``L`` switch of subtree ``dst // K_L`` with the same
        digits, for ``L = m - 1 .. 1``.  Ports are not range-checked.
        """
        src = np.asarray(src_ports, dtype=np.int64)[:, None]
        dst = np.asarray(dst_ports, dtype=np.int64)[:, None]
        if bool((src == dst).any()):
            raise TopologyError("no switch path between identical ports")
        stages = self.num_stages
        group = np.asarray(self._group, dtype=np.int64)   # K_0 .. K_n
        offset = np.asarray(self._level_offset[1:], dtype=np.int64)
        digits = dst % group[:-1]                          # (pairs, levels)
        up = offset + (src // group[1:]) * group[:-1] + digits
        down = offset + (dst // group[1:]) * group[:-1] + digits
        # the NCA level is the lowest level whose subtrees coincide
        nca = stages + 1 - (src // group[1:] == dst // group[1:]).sum(
            axis=1, keepdims=True)
        # columns: climb through levels 1..n, then descend n-1..1
        grid = np.concatenate((up, down[:, :stages - 1][:, ::-1]), axis=1)
        col = np.arange(2 * stages - 1)
        return walks.from_grid(grid, (col < nca) | (col >= 2 * stages - nca))

    # --------------------------------------------------------------- analysis
    def routing_diameter(self) -> int:
        """Worst-case port-to-port hop count (access links included)."""
        return 2 * self.num_stages


class FatTreeTopology(Topology):
    """The paper's Fattree baseline: one endpoint per leaf port."""

    name = "fattree"

    def __init__(self, arities: Sequence[int], *,
                 link_capacity: float = DEFAULT_LINK_CAPACITY,
                 nic_capacity: float | None = None) -> None:
        fabric = FatTreeFabric(arities)
        super().__init__(fabric.num_ports, fabric.num_switches,
                         link_capacity, nic_capacity)
        self.fabric = fabric
        offset = self.num_endpoints
        fabric.build_links(self.links, offset, link_capacity)
        for e in range(self.num_endpoints):
            self.links.add_duplex(e, offset + fabric.port_switch(e), link_capacity)
        self._switch_offset = offset
        self._finalize()

    @classmethod
    def for_ports(cls, ports: int, stages: int = 3, **kwargs) -> "FatTreeTopology":
        """Build with planner-chosen arities (paper rule at full scale)."""
        return cls(fattree_arities(ports, stages), **kwargs)

    def vertex_path(self, src: int, dst: int) -> list[int]:
        self._check_endpoint(src)
        self._check_endpoint(dst)
        if src == dst:
            return [src]
        body = [self._switch_offset + s for s in self.fabric.port_path(src, dst)]
        return [src, *body, dst]

    def routes(self, src: np.ndarray, dst: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        src, dst = self._check_endpoints(src, dst)
        return self._walk_routes(
            src, dst, fabric_walks(src, dst, self.fabric, self._switch_offset))

    def vertex_path_candidates(self, src: int, dst: int) -> list[list[int]]:
        """All minimal UP*/DOWN* walks (one per common-ancestor switch)."""
        self._check_endpoint(src)
        self._check_endpoint(dst)
        if src == dst:
            return [[src]]
        return [[src, *(self._switch_offset + s for s in body), dst]
                for body in self.fabric.port_paths(src, dst)]

    def routing_diameter(self) -> int:
        """Worst-case endpoint-to-endpoint hop count (``2 * stages``)."""
        return self.fabric.routing_diameter()
