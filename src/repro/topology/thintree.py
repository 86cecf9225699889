"""Thin trees: k:k'-ary n-trees (over-subscribed fattrees).

The paper deliberately applies *no* over-subscription to its fattrees
(Section 4.2), citing the authors' own thin-tree work (Navaridas et al.,
"Reducing complexity in tree-like computer interconnection networks").
This module implements that cited family so the cost/performance knob can
actually be explored: a level-``l`` switch has ``k_l`` down-ports but only
``u_l <= k_l`` up-ports, thinning the tree towards the root by the
over-subscription ratio ``prod(k_l / u_l)``.

Construction generalises the fattree's switch-identity scheme: a
level-``l`` switch is ``(l, subtree, digits)``, its intra-subtree digits
range over ``u_1 x ... x u_{l-1}`` instead of ``k_1 x ... x k_{l-1}``, and
routing is minimal UP*/DOWN* (climb to the nearest common ancestor, then
descend), the d-mod-k up-port choice reducing the destination digit
modulo ``u_l``.  With ``u == k`` the layout and routes are the fattree's:
:class:`~repro.topology.fattree.FatTreeFabric` is this fabric with full
up-arities.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import TopologyError
from repro.topology.base import FabricTopology
from repro.topology.linktable import LinkTable
from repro.units import DEFAULT_LINK_CAPACITY


def level_cables(subtrees: int, width: int, up: int, parent: int,
                 lo_offset: int, hi_offset: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The up-cables from tree level ``l`` to level ``l + 1``, as
    ``(lower, upper)`` local switch ids.

    Level ``l`` has ``subtrees`` subtrees of ``width`` switches, each with
    ``up`` up-ports, and ``parent`` level-``l`` subtrees share one
    level-``l + 1`` subtree.  Switch ``(subtree, value)`` reaches, through
    up-port ``x``, switch ``(subtree // parent, value + x * width)`` one
    level up, whose subtrees hold ``width * up`` switches.  Cables come in
    ``(subtree, value, x)`` order.
    """
    sub = np.arange(subtrees, dtype=np.int64)[:, None, None]
    value = np.arange(width, dtype=np.int64)[None, :, None]
    x = np.arange(up, dtype=np.int64)[None, None, :]
    hi = hi_offset + (sub // parent) * (width * up) + value + x * width
    lo = np.broadcast_to(lo_offset + sub * width + value, hi.shape)
    return lo.ravel(), hi.ravel()


class ThinTreeFabric:
    """Switch-level structure of a k:k'-ary n-tree.

    ``down_arities[l]`` is the number of children per level-``l+1`` switch
    (``k``); ``up_arities[l]`` the number of up-ports of a level-``l+1``
    switch (``k'``), with the top stage having none.  Local switch ids are
    dense in ``[0, num_switches)``, ordered by level, then subtree, then
    intra-subtree digits; the owner topology adds a vertex offset.
    """

    def __init__(self, down_arities: Sequence[int],
                 up_arities: Sequence[int]) -> None:
        down = tuple(int(k) for k in down_arities)
        up = tuple(int(k) for k in up_arities)
        if len(up) != len(down) - 1:
            raise TopologyError(
                "need one up-arity per non-top stage "
                f"(got {len(up)} for {len(down)} stages)")
        if not down or any(k < 2 for k in down):
            raise TopologyError(f"invalid down arities {down}")
        if any(u < 1 for u in up):
            raise TopologyError(f"invalid up arities {up}")
        if any(u > k for u, k in zip(up, down)):
            raise TopologyError(
                f"thin tree cannot widen: up {up} exceeds down {down}")
        self.down = down
        self.up = up
        self.num_stages = len(down)
        self.num_ports = 1
        for k in down:
            self.num_ports *= k
        # group[l] = leaves per level-l subtree; digits[l] = switches per
        # level-(l+1) subtree (product of up-arities below)
        self._group = [1]
        for k in down:
            self._group.append(self._group[-1] * k)
        self._digits = [1]
        for u in up:
            self._digits.append(self._digits[-1] * u)
        self._level_offset = [0, 0]
        for level in range(1, self.num_stages):
            count = (self.num_ports // self._group[level]) * self._digits[level - 1]
            self._level_offset.append(self._level_offset[level] + count)
        self.num_switches = sum(
            (self.num_ports // self._group[level]) * self._digits[level - 1]
            for level in range(1, self.num_stages + 1))
        # first cable of each level's up-cables, in build_links order
        cables = [(self.num_ports // self._group[level])
                  * self._digits[level - 1] * self.up[level - 1]
                  for level in range(1, self.num_stages)]
        self._cable_start = np.cumsum([0, *cables]).tolist()

    # -------------------------------------------------------------- indexing
    def switch_id(self, level: int, subtree: int, digits: tuple[int, ...]) -> int:
        """Dense local id of switch ``(level, subtree, digits)``."""
        value = 0
        for d, u in zip(reversed(digits), reversed(self.up[: level - 1])):
            value = value * u + d
        return (self._level_offset[level]
                + subtree * self._digits[level - 1] + value)

    def port_switch(self, port: int) -> int:
        """Local id of the level-1 switch owning a leaf port."""
        if not 0 <= port < self.num_ports:
            raise TopologyError(f"tree port {port} out of range")
        return port // self.down[0]

    def port_switches(self, ports: np.ndarray) -> np.ndarray:
        """:meth:`port_switch` of many ports (not range-checked)."""
        return ports // self.down[0]

    # ------------------------------------------------------------------ build
    def build_links(self, links: LinkTable, offset: int, capacity: float) -> None:
        """Register every duplex switch-to-switch link, ids offset by
        ``offset``: one batch per level, lowest level first."""
        for level in range(1, self.num_stages):
            lo, hi = level_cables(
                self.num_ports // self._group[level], self._digits[level - 1],
                self.up[level - 1], self.down[level],
                self._level_offset[level], self._level_offset[level + 1])
            links.add_cables(offset + lo, offset + hi, capacity)

    # ---------------------------------------------------------------- routing
    def nca_level(self, a: int, b: int) -> int:
        if a == b:
            raise TopologyError("identical ports share no switch path")
        for level in range(1, self.num_stages + 1):
            if a // self._group[level] == b // self._group[level]:
                return level
        raise TopologyError("ports outside the tree")  # pragma: no cover

    def _walk(self, src_port: int, dst_port: int, m: int,
              climb: Sequence[int]) -> list[int]:
        """The UP*/DOWN* switch walk to nearest-common-ancestor level
        ``m``, taking up-port ``climb[l - 1]`` at level ``l``; the descent
        follows the destination, truncating the digits."""
        subtree = src_port // self.down[0]
        digits: tuple[int, ...] = ()
        path = [self.switch_id(1, subtree, digits)]
        for level in range(1, m):
            digits = digits + (climb[level - 1],)
            subtree //= self.down[level]
            path.append(self.switch_id(level + 1, subtree, digits))
        for level in range(m - 1, 0, -1):
            path.append(self.switch_id(level,
                                       dst_port // self._group[level],
                                       digits[: level - 1]))
        return path

    def _dst_digits(self, dst_port: int) -> list[int]:
        """The d-mod-k up-ports: destination digits modulo the up-arities."""
        digits, rem = [], dst_port
        for k, u in zip(self.down[:-1], self.up):
            digits.append((rem % k) % u)
            rem //= k
        return digits

    def port_path(self, src_port: int, dst_port: int) -> list[int]:
        """Local switch-id sequence (minimal UP*/DOWN*, d-mod-k thinned)."""
        if src_port == dst_port:
            raise TopologyError("no switch path between identical ports")
        a, b = self.port_switch(src_port), self.port_switch(dst_port)
        if a == b:
            return [a]
        return self._walk(src_port, dst_port,
                          self.nca_level(src_port, dst_port),
                          self._dst_digits(dst_port))

    def port_choices(self, src_ports: np.ndarray, dst_ports: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """``(walks, hops)`` per port pair: how many minimal walks join
        the ports (one up-digit choice per level climbed), and how many
        links each crosses.  Ports are not range-checked."""
        walks = np.ones(np.shape(src_ports), dtype=np.int64)
        hops = np.zeros_like(walks)
        for level in range(1, self.num_stages):
            crossed = src_ports // self._group[level] \
                != dst_ports // self._group[level]
            walks[crossed] *= self.up[level - 1]
            hops += 2 * crossed
        return walks, hops

    def port_links(self, src_ports: np.ndarray, dst_ports: np.ndarray,
                   variant: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
        """The hops of :meth:`port_path` for many port pairs, as link
        ordinals in :meth:`build_links` order.

        Returns a ``(grid, keep)`` pair of ``(2 * (stages - 1), pairs)``
        arrays whose column ``i`` keeps, top to bottom, the links of the
        walk ``src -> dst``; identical ports keep none.  Level ``L``'s
        cables follow ``(level, lower switch, up digit)`` order, cable
        ``c`` being links ``2c`` (up) and ``2c + 1`` (down).  The d-mod-k
        climb leaves the level-``L`` switch of subtree ``src // K_L``,
        whose digits are the destination's low ``L - 1`` digits (each
        modulo its up-arity), through up digit ``dst``'s ``L``-th; the
        descent enters the level-``L`` switch of subtree ``dst // K_L``
        with the same digits through the same up digit.  A level is
        crossed when the two ports' level-``L`` subtrees differ.  Ports
        are not range-checked.

        ``variant`` picks, per pair, another minimal walk: the
        ``variant[i]``-th of the :meth:`port_choices` combinations of up
        digits over the levels climbed, in product order (the highest
        level varies fastest), where each level offers its d-mod-k digit
        first and then the others in ascending order.  Variant 0 is
        :meth:`port_path`'s walk.
        """
        src = np.asarray(src_ports, dtype=np.int64)
        dst = np.asarray(dst_ports, dtype=np.int64)
        levels = self.num_stages - 1
        grid = np.empty((2 * levels, src.shape[0]), dtype=np.int64)
        keep = np.empty(grid.shape, dtype=bool)
        # per level: the d-mod-k climb digit, and whether it is crossed
        climb = np.empty((levels, src.shape[0]), dtype=np.int64)
        rest = dst // self.down[0]
        digit = dst % self.down[0]
        for level in range(1, levels + 1):
            np.remainder(digit, self.up[level - 1], out=climb[level - 1])
            np.not_equal(src // self._group[level], dst // self._group[level],
                         out=keep[level - 1])
            keep[-level] = keep[level - 1]
            rest, digit = np.divmod(rest, self.down[level])
        if variant is not None:
            rest = np.asarray(variant, dtype=np.int64)
            for level in range(levels, 0, -1):
                crossed = keep[level - 1]
                pick = np.where(crossed, rest % self.up[level - 1], 0)
                rest = np.where(crossed, rest // self.up[level - 1], rest)
                # choice 0 is the d-mod-k digit, choice j > 0 the (j-1)-th
                # of the others
                other = pick - 1
                other += other >= climb[level - 1]
                climb[level - 1] = np.where(pick == 0, climb[level - 1], other)
        # the climb's intra-subtree value
        value = np.zeros_like(dst)
        for level in range(1, levels + 1):
            width, up = self._digits[level - 1], self.up[level - 1]
            cable = self._cable_start[level - 1] + value * up \
                + climb[level - 1]
            # climbing from level ``level``, and descending to it
            grid[level - 1] = 2 * (cable + src // self._group[level]
                                   * (width * up))
            grid[-level] = 2 * (cable + dst // self._group[level]
                                * (width * up)) + 1
            value += climb[level - 1] * width
        return grid, keep

    # --------------------------------------------------------------- analysis
    def routing_diameter(self) -> int:
        """Worst-case port-to-port hop count (access links included)."""
        return 2 * self.num_stages

    def oversubscription(self) -> float:
        """Aggregate down/up bandwidth ratio at the most thinned stage."""
        worst = 1.0
        for k, u in zip(self.down, self.up):
            worst = max(worst, k / u)
        return worst


class ThinTreeTopology(FabricTopology):
    """Endpoints attached to a thin tree (one per leaf port)."""

    name = "thintree"

    def __init__(self, down_arities: Sequence[int],
                 up_arities: Sequence[int], *,
                 link_capacity: float = DEFAULT_LINK_CAPACITY,
                 nic_capacity: float | None = None) -> None:
        super().__init__(ThinTreeFabric(down_arities, up_arities),
                         link_capacity, nic_capacity)
