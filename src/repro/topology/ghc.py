"""Generalised hypercube (GHC) fabric and endpoint topology.

A GHC over mixed radices ``(k_1, ..., k_d)`` fully connects each dimension:
two switches are linked whenever their coordinates differ in exactly one
position, so one hop corrects an entire coordinate (Bhuyan & Agrawal, 1984).
Routing is e-cube (dimensions corrected in ascending order).

As in BCube-style deployments (the paper's stated inspiration for its GHC
upper tier), several endpoints share one GHC switch; the default of 16
endpoints per switch reproduces the paper's full-scale switch count of
8,192 for 131,072 uplinks at density u=1.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

import numpy as np

from repro.errors import TopologyError
from repro.routing import ecube
from repro.topology.base import FabricTopology
from repro.topology.linktable import LinkTable
from repro.topology.planner import ghc_radices
from repro.units import DEFAULT_LINK_CAPACITY

#: Endpoints attached to each GHC switch (ExaNeSt full scale: 131072/8192).
DEFAULT_PORTS_PER_SWITCH = 16

#: ``n!`` at index ``n``: the minimal walks of ``n`` differing dimensions.
_FACTORIALS = np.cumprod(np.concatenate(([1], np.arange(1, 21))))


def _orders(differ: np.ndarray, variant: np.ndarray) -> np.ndarray:
    """``(dimensions, pairs)``: per pair, its dimensions in the order of
    its ``variant``-th permutation of the differing ones (lexicographic,
    so variant 0 is ascending), then the others.

    The ``j``-th dimension corrected is the ``(variant // (n-1-j)!) %
    (n-j)``-th differing one not yet taken, ``n`` being their count.
    """
    dims, pairs = differ.shape
    count = differ.sum(axis=0)
    left = differ.copy()
    # the others sort after every differing dimension, in ascending order
    rank = np.broadcast_to(dims + np.arange(dims)[:, None],
                           differ.shape).copy()
    cols = np.arange(pairs)
    for j in range(dims):
        active = j < count
        span = np.maximum(count - j, 1)
        pick = (variant // _FACTORIALS[np.maximum(count - 1 - j, 0)]) % span
        # the pick-th dimension still left, counting from 0
        at = np.argmax(left & (np.cumsum(left, axis=0) == pick + 1), axis=0)
        rank[at[active], cols[active]] = j
        left[at[active], cols[active]] = False
    return np.argsort(rank, axis=0, kind="stable")


class GHCFabric:
    """Switch-level structure of a generalised hypercube.

    Local switch ids are the mixed-radix linearisation of the coordinates
    (dimension 0 fastest-varying).  ``ports_per_switch`` consecutive ports
    share each switch.
    """

    def __init__(self, radices: Sequence[int], ports_per_switch: int) -> None:
        radices = tuple(int(k) for k in radices)
        if any(k < 2 for k in radices):
            raise TopologyError(f"invalid GHC radices {radices}")
        # an empty radix tuple is the degenerate single-switch fabric
        # (all ports on one switch; no GHC links)
        if ports_per_switch < 1:
            raise TopologyError("ports_per_switch must be >= 1")
        self.radices = radices
        self.ports_per_switch = ports_per_switch
        self.num_switches = 1
        for k in radices:
            self.num_switches *= k
        self.num_ports = self.num_switches * ports_per_switch

    @classmethod
    def for_ports(cls, ports: int,
                  ports_per_switch: int | None = None,
                  dims: int = 4) -> "GHCFabric":
        """Plan radices for ``ports`` uplinks.

        With ``ports_per_switch=None`` (the default) the attach density is
        chosen automatically: the largest density ``<= 16`` whose fabric
        degree is at least twice the density.  At the paper's full scale
        this picks 16 endpoints per switch (8192 switches for 131,072
        uplinks, degree 36 — Table 2's u=1 row); at scaled-down sizes it
        keeps the fabric provisioned in the same proportion instead of
        collapsing onto a handful of low-degree switches.

        An explicit ``ports_per_switch`` is honoured (lowered to the
        largest divisor of ``ports`` so every switch hosts the same count).
        """
        if ports < 1:
            raise TopologyError(f"a GHC fabric needs at least 1 port, "
                                f"got {ports}")
        if ports_per_switch is not None:
            pps = min(ports_per_switch, ports)
            while ports % pps:
                pps -= 1
            return cls(ghc_radices(ports // pps, dims), pps)
        best = 1
        for pps in range(min(DEFAULT_PORTS_PER_SWITCH, ports), 0, -1):
            if ports % pps:
                continue
            radices = ghc_radices(ports // pps, dims)
            if sum(k - 1 for k in radices) >= 2 * pps:
                best = pps
                break
            best = max(best, 1)
        return cls(ghc_radices(ports // best, dims), best)

    # -------------------------------------------------------------- indexing
    def coord_of(self, switch: int) -> tuple[int, ...]:
        """Mixed-radix coordinates of a local switch id."""
        if not 0 <= switch < self.num_switches:
            raise TopologyError(f"GHC switch {switch} out of range")
        coord = []
        for k in self.radices:
            coord.append(switch % k)
            switch //= k
        return tuple(coord)

    def index_of(self, coord: Sequence[int]) -> int:
        """Inverse of :meth:`coord_of`."""
        idx = 0
        for c, k in zip(reversed(tuple(coord)), reversed(self.radices)):
            if not 0 <= c < k:
                raise TopologyError(f"GHC coordinate {coord} out of range")
            idx = idx * k + c
        return idx

    def port_switch(self, port: int) -> int:
        """Local switch id owning a port."""
        if not 0 <= port < self.num_ports:
            raise TopologyError(f"GHC port {port} out of range")
        return port // self.ports_per_switch

    def port_switches(self, ports: np.ndarray) -> np.ndarray:
        """:meth:`port_switch` of many ports (not range-checked)."""
        return ports // self.ports_per_switch

    # ------------------------------------------------------------------ build
    def _cable_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """``(upper, held)``, one row per switch: the switch each column
        ``(dimension, higher coordinate)`` leads to, and whether that
        coordinate is higher than the switch's own (the cell holds a
        cable).  Columns go dimension by dimension, then by coordinate;
        the cables are the held cells in row-major order."""
        sw = np.arange(self.num_switches, dtype=np.int64)
        cols, keep = [], []
        stride = 1
        for k in self.radices:
            coord = (sw // stride) % k
            for higher in range(k):
                cols.append(sw + (higher - coord) * stride)
                keep.append(coord < higher)
            stride *= k
        if not cols:
            return (np.empty((sw.shape[0], 0), dtype=np.int64),
                    np.empty((sw.shape[0], 0), dtype=bool))
        return np.stack(cols, axis=1), np.stack(keep, axis=1)

    def build_links(self, links: LinkTable, offset: int, capacity: float) -> None:
        """Register every duplex switch-to-switch link, ids offset by
        ``offset``, in one batch: switch by switch, each cable to a switch
        with a higher coordinate in one dimension, dimension by dimension
        and then by that coordinate (:meth:`_cable_grid`)."""
        grid, held = self._cable_grid()
        if grid.shape[1]:
            links.add_cables(offset + np.broadcast_to(
                np.arange(self.num_switches, dtype=np.int64)[:, None],
                grid.shape)[held], offset + grid[held], capacity)

    @cached_property
    def _cable_rank(self) -> np.ndarray:
        """Per :meth:`_cable_grid` cell, flattened: the ordinal of the
        cable it holds (arbitrary where it holds none)."""
        return np.cumsum(self._cable_grid()[1].ravel()) - 1

    # ---------------------------------------------------------------- routing
    def port_path(self, src_port: int, dst_port: int) -> list[int]:
        """Local switch-id sequence between two distinct ports (e-cube)."""
        if src_port == dst_port:
            raise TopologyError("no switch path between identical ports")
        a, b = self.port_switch(src_port), self.port_switch(dst_port)
        if a == b:
            return [a]
        coords = ecube.path(self.coord_of(a), self.coord_of(b), self.radices)
        return [self.index_of(c) for c in coords]

    def port_choices(self, src_ports: np.ndarray, dst_ports: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """``(walks, hops)`` per port pair: how many minimal walks join
        the ports (one per order of the differing dimensions), and how
        many links each crosses.  Ports are not range-checked."""
        a = np.asarray(src_ports, dtype=np.int64) // self.ports_per_switch
        b = np.asarray(dst_ports, dtype=np.int64) // self.ports_per_switch
        hops = (np.take(self._coords, a, axis=1)
                != np.take(self._coords, b, axis=1)).sum(axis=0)
        return _FACTORIALS[hops], hops

    def port_links(self, src_ports: np.ndarray, dst_ports: np.ndarray,
                   variant: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
        """The hops of :meth:`port_path` for many port pairs, as link
        ordinals in :meth:`build_links` order.

        Returns a ``(grid, keep)`` pair of ``(dimensions, pairs)`` arrays:
        row ``i`` is the e-cube hop that sets dimension ``i`` to the
        destination switch's coordinate, kept when the coordinates
        differ; identical ports keep none.  The hop crosses the cable of
        the lower of its two switches in cell ``(dimension, higher
        coordinate)`` of :meth:`_cable_grid`: its link ``2c`` when it
        climbs, ``2c + 1`` when it descends.  Ports are not range-checked.

        ``variant`` picks, per pair, another minimal walk: the pair's rows
        then follow the ``variant``-th of the orders of its differing
        dimensions (the orders :meth:`port_choices` counts), in
        lexicographic order, and its other dimensions after them.
        Variant 0 is the ascending e-cube order of :meth:`port_path`.
        """
        a = np.asarray(src_ports, dtype=np.int64) // self.ports_per_switch
        b = np.asarray(dst_ports, dtype=np.int64) // self.ports_per_switch
        have = np.take(self._coords, a, axis=1)
        want = np.take(self._coords, b, axis=1)
        radix = np.asarray(self.radices, dtype=np.int64)
        stride = np.cumprod(np.concatenate(([1], radix[:-1])))[:, None]
        # each dimension's first column, in a row of sum(radices) columns
        first = (np.cumsum(radix) - radix)[:, None]
        if variant is not None:
            order = _orders(have != want, np.asarray(variant, dtype=np.int64))
            have = np.take_along_axis(have, order, axis=0)
            want = np.take_along_axis(want, order, axis=0)
            stride = stride[:, 0][order]
            first = first[:, 0][order]
        move = (want - have) * stride
        # the switch each hop leaves: the dimensions below it corrected
        leave = a + np.cumsum(move, axis=0) - move
        cell = (leave + (np.minimum(have, want) - have) * stride) \
            * int(radix.sum()) + first + np.maximum(have, want)
        return 2 * self._cable_rank[cell] + (want < have), have != want

    @cached_property
    def _coords(self) -> np.ndarray:
        """``(dimensions, switches)``: every switch's coordinates."""
        sw = np.arange(self.num_switches, dtype=np.int64)
        out = np.empty((len(self.radices), sw.shape[0]), dtype=np.int64)
        for dim, k in enumerate(self.radices):
            sw, out[dim] = np.divmod(sw, k)
        return out

    # --------------------------------------------------------------- analysis
    def routing_diameter(self) -> int:
        """Worst-case port-to-port hop count (access links included)."""
        return len(self.radices) + 2

    def switch_degree(self) -> int:
        """Network degree of each switch (fabric links only)."""
        return ecube.degree(self.radices)


class GHCTopology(FabricTopology):
    """Standalone generalised hypercube with endpoints attached to switches."""

    name = "ghc"

    def __init__(self, radices: Sequence[int],
                 ports_per_switch: int = DEFAULT_PORTS_PER_SWITCH, *,
                 link_capacity: float = DEFAULT_LINK_CAPACITY,
                 nic_capacity: float | None = None) -> None:
        super().__init__(GHCFabric(radices, ports_per_switch),
                         link_capacity, nic_capacity)
