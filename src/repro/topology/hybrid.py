"""Hybrid multi-tier machinery: subtorus partitioning and uplink placement.

The paper's hybrid topologies keep the hardware-imposed torus at the lower
tier, but *partition* it: the system is a collection of independent
``t x t x t`` subtori, and all inter-subtorus traffic crosses an upper-tier
fabric (a fattree for NestTree, a GHC for NestGHC).

Uplink density follows Fig. 3 of the paper: one uplink per ``u`` QFDBs,
``u in {1, 2, 4, 8}``, placed within each 2x2x2 subgrid of the subtorus:

* ``u = 1`` — every node is uplinked,
* ``u = 2`` — nodes with even X; the others reach one in a single X hop,
* ``u = 4`` — two opposite vertices of each 2x2x2 subgrid, so every node is
  at most one hop from its designated uplink,
* ``u = 8`` — the subgrid root only; up to three hops away.

Routing (paper Section 4.2): intra-subtorus traffic *always stays inside the
subtorus* (DOR); inter-subtorus traffic goes DOR to the source's designated
uplink node, minimally across the upper fabric, then DOR from the
destination's designated uplink node to the destination.
"""

from __future__ import annotations

from functools import cached_property
from typing import Protocol

import numpy as np

from repro.errors import TopologyError
from repro.routing import dor, walks
from repro.topology.base import MAX_ROUTE_CANDIDATES, Topology
from repro.topology.linktable import LinkTable
from repro.units import DEFAULT_LINK_CAPACITY

#: Densities supported by the paper's placement rules.
VALID_DENSITIES = (1, 2, 4, 8)


class UpperFabric(Protocol):
    """What a hybrid needs from its upper tier (fattree or GHC)."""

    num_ports: int
    num_switches: int

    def build_links(self, links: LinkTable, offset: int, capacity: float) -> None: ...
    def port_switch(self, port: int) -> int: ...
    def port_switches(self, ports: np.ndarray) -> np.ndarray: ...
    def port_path(self, src_port: int, dst_port: int) -> list[int]: ...
    def port_choices(self, src_ports: np.ndarray, dst_ports: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]: ...
    def port_links(self, src_ports: np.ndarray, dst_ports: np.ndarray,
                   variant: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]: ...
    def routing_diameter(self) -> int: ...


class SubtorusPlan:
    """Geometry of one subtorus: uplinked nodes and designated uplinks.

    Local node ids linearise ``(x, y, z)`` with x fastest; the same plan is
    replicated across every subtorus of the system.
    """

    def __init__(self, t: int, u: int) -> None:
        if u not in VALID_DENSITIES:
            raise TopologyError(f"uplink density u={u} not in {VALID_DENSITIES}")
        if t < 1:
            raise TopologyError(f"subtorus side t={t} must be positive")
        if u > 1 and t % 2:
            raise TopologyError(
                f"density u={u} needs an even subtorus side, got t={t}")
        self.t = t
        self.u = u
        self.dims = (t, t, t)
        self.nodes = t ** 3
        if self.nodes % u:
            raise TopologyError(f"subtorus of {self.nodes} nodes not divisible by u={u}")

        uplinked: list[int] = []
        designated: list[int] = []
        for local in range(self.nodes):
            x, y, z = dor.index_to_coord(local, self.dims)
            if self._is_uplinked(x, y, z):
                uplinked.append(local)
            designated.append(dor.coord_to_index(self._designated(x, y, z), self.dims))
        self.uplinked = uplinked                      # ascending local ids
        self.designated = designated                  # local id -> local uplink id
        self.uplink_rank = {l: i for i, l in enumerate(uplinked)}
        if len(uplinked) != self.nodes // u:          # placement-rule sanity
            raise TopologyError(
                f"placement produced {len(uplinked)} uplinks, expected {self.nodes // u}")
        # array twins of ``designated`` and ``uplink_rank`` (-1: no uplink)
        # for the batched routes
        self.designated_arr = np.asarray(designated, dtype=np.int64)
        self.rank_arr = np.full(self.nodes, -1, dtype=np.int64)
        self.rank_arr[uplinked] = np.arange(len(uplinked))

    @cached_property
    def tied_uplinks(self) -> list[tuple[int, ...]]:
        """All uplinked nodes at minimal DOR distance, per local node.

        The designated uplink comes first, then the others in ascending
        local id.  These are the candidate exits for adaptive/ecmp
        routing: any of them reaches the upper fabric in the same number
        of lower-tier hops, so substituting one keeps the lower-tier leg
        minimal (the total route is still length-filtered against the
        deterministic route, because the upper-fabric leg may differ
        between exit ports).  Only candidate routing reads them, so they
        are computed on first access.
        """
        table, count = self.tied_table
        return [tuple(row[:k]) for row, k in zip(table.tolist(),
                                                 count.tolist())]

    @cached_property
    def tied_table(self) -> tuple[np.ndarray, np.ndarray]:
        """:attr:`tied_uplinks` as arrays: ``(table, count)``, where row
        ``l`` of ``table`` holds node ``l``'s ``count[l]`` tied uplinks,
        padded with ``-1``."""
        local = np.arange(self.nodes, dtype=np.int64)
        up = np.asarray(self.uplinked, dtype=np.int64)
        # DOR distance from every node to every uplinked node
        dist = np.zeros((self.nodes, up.shape[0]), dtype=np.int64)
        for k, stride in zip(self.dims, (1, self.t, self.t * self.t)):
            forward = (up[None, :] // stride - local[:, None] // stride) % k
            dist += np.minimum(forward, k - forward)
        des = self.designated_arr
        tied = (dist == dist[local, self.rank_arr[des]][:, None]) \
            & (up[None, :] != des[:, None])
        count = 1 + tied.sum(axis=1)
        table = np.full((self.nodes, int(count.max())), -1, dtype=np.int64)
        table[:, 0] = des
        # the others in ascending order, after the designated uplink
        rows, cols = np.nonzero(tied)
        table[rows, np.cumsum(tied, axis=1)[rows, cols]] = up[cols]
        return table, count

    # ------------------------------------------------------------- placement
    def _is_uplinked(self, x: int, y: int, z: int) -> bool:
        if self.u == 1:
            return True
        if self.u == 2:
            return x % 2 == 0
        if self.u == 4:
            return (x % 2, y % 2, z % 2) in ((0, 0, 0), (1, 1, 1))
        return x % 2 == 0 and y % 2 == 0 and z % 2 == 0  # u == 8

    def _designated(self, x: int, y: int, z: int) -> tuple[int, int, int]:
        """The uplinked node this node routes through (Fig. 3 arrows)."""
        if self.u == 1:
            return (x, y, z)
        bx, by, bz = x - x % 2, y - y % 2, z - z % 2  # 2x2x2 subgrid base
        if self.u == 2:
            return (bx, y, z)
        if self.u == 4:
            # nearest of the two opposite subgrid vertices (<= 1 hop)
            if (x % 2) + (y % 2) + (z % 2) <= 1:
                return (bx, by, bz)
            return (bx + 1, by + 1, bz + 1)
        return (bx, by, bz)  # u == 8: subgrid root

    # --------------------------------------------------------------- metrics
    def max_hops_to_uplink(self) -> int:
        """Worst-case DOR hops from a node to its designated uplink."""
        return max(
            dor.distance(dor.index_to_coord(l, self.dims),
                         dor.index_to_coord(d, self.dims), self.dims)
            for l, d in enumerate(self.designated)
        )

    def intra_diameter(self) -> int:
        """DOR diameter of the subtorus itself."""
        return sum(k // 2 for k in self.dims)


class NestedTopology(Topology):
    """A system of independent subtori nested under an upper fabric.

    Endpoint ids: subtorus ``s``, local node ``l`` -> ``s * t^3 + l``.
    Upper-fabric port ``p`` enumerates uplinked nodes subtorus-major, in
    ascending local id.
    """

    name = "nested"

    def __init__(self, num_endpoints: int, plan: SubtorusPlan,
                 fabric: UpperFabric, *,
                 link_capacity: float = DEFAULT_LINK_CAPACITY,
                 nic_capacity: float | None = None) -> None:
        if num_endpoints % plan.nodes:
            raise TopologyError(
                f"{num_endpoints} endpoints do not tile {plan.nodes}-node subtori")
        num_subtori = num_endpoints // plan.nodes
        ports_needed = num_subtori * len(plan.uplinked)
        if fabric.num_ports != ports_needed:
            raise TopologyError(
                f"fabric has {fabric.num_ports} ports, hybrid needs {ports_needed}")
        super().__init__(num_endpoints, fabric.num_switches,
                         link_capacity, nic_capacity)
        self.plan = plan
        self.fabric = fabric
        self.num_subtori = num_subtori
        self._switch_offset = num_endpoints

        # lower tier: one independent torus per subtorus, subtorus-major,
        # so subtorus s's link with DOR ordinal o has id
        # s * links_per_subtorus + o
        base = np.arange(num_subtori, dtype=np.int64)[:, None] * plan.nodes
        local_src, local_dst = dor.neighbor_links(plan.dims)
        self.links_per_subtorus = local_src.shape[0]
        self.links.add_links((base + local_src).ravel(),
                             (base + local_dst).ravel(), link_capacity)
        # upper tier fabric + uplink access links, one per fabric port:
        # port p climbs on link 2p of the run and descends on 2p + 1
        self._fabric_first = self.links.num_links
        fabric.build_links(self.links, self._switch_offset, link_capacity)
        self._uplink_first = self.links.num_links
        uplinked = (base + np.asarray(plan.uplinked, dtype=np.int64)).ravel()
        self.links.add_cables(
            uplinked, self._switch_offset + fabric.port_switches(
                np.arange(uplinked.shape[0], dtype=np.int64)),
            link_capacity)
        self._finalize()
        # every subtorus is wired alike: one column per local node, the
        # DOR legs to and from its designated uplink as link ordinals,
        # and that uplink's rank among the subtorus's ports
        local = np.arange(plan.nodes, dtype=np.int64)
        self._up_leg = dor.path_links(local, plan.designated_arr, plan.dims)
        self._down_leg = dor.path_links(plan.designated_arr, local,
                                        plan.dims)
        self._exit_rank = plan.rank_arr[plan.designated_arr]

    # ---------------------------------------------------------------- helpers
    def subtorus_of(self, endpoint: int) -> int:
        """Which subtorus an endpoint belongs to."""
        self._check_endpoint(endpoint)
        return endpoint // self.plan.nodes

    def port_of(self, endpoint: int) -> int:
        """Upper-fabric port of an *uplinked* endpoint."""
        s, local = divmod(endpoint, self.plan.nodes)
        try:
            rank = self.plan.uplink_rank[local]
        except KeyError:
            raise TopologyError(f"endpoint {endpoint} has no uplink") from None
        return s * len(self.plan.uplinked) + rank

    def designated_uplink(self, endpoint: int) -> int:
        """The uplinked endpoint that carries this endpoint's upper-tier traffic."""
        s, local = divmod(endpoint, self.plan.nodes)
        return s * self.plan.nodes + self.plan.designated[local]

    def _local_path(self, a: int, b: int) -> list[int]:
        """DOR walk between two endpoints of the same subtorus (global ids)."""
        s = a // self.plan.nodes
        base = s * self.plan.nodes
        coords = dor.path(dor.index_to_coord(a - base, self.plan.dims),
                          dor.index_to_coord(b - base, self.plan.dims),
                          self.plan.dims)
        return [base + dor.coord_to_index(c, self.plan.dims) for c in coords]

    def tied_uplinks_of(self, endpoint: int) -> list[int]:
        """Uplinked endpoints at minimal DOR distance, designated first."""
        s, local = divmod(endpoint, self.plan.nodes)
        base = s * self.plan.nodes
        return [base + up for up in self.plan.tied_uplinks[local]]

    # ---------------------------------------------------------------- routing
    def vertex_path(self, src: int, dst: int) -> list[int]:
        self._check_endpoint(src)
        self._check_endpoint(dst)
        if src == dst:
            return [src]
        if self.subtorus_of(src) == self.subtorus_of(dst):
            return self._local_path(src, dst)  # never leaves the subtorus
        us = self.designated_uplink(src)
        ud = self.designated_uplink(dst)
        up = self._local_path(src, us)
        switches = [self._switch_offset + s
                    for s in self.fabric.port_path(self.port_of(us), self.port_of(ud))]
        down = self._local_path(ud, dst)
        return up + switches + down

    def routes(self, src: np.ndarray, dst: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """Batched nested routes: row ``i`` equals ``route(src[i], dst[i])``.

        Link ids come from the registration layout, never from a lookup.
        A same-subtorus pair crosses its DOR links
        (:func:`~repro.routing.dor.path_links`), shifted to its subtorus.
        Any other pair crosses the source's up-leg (its node's column of
        the up-leg table, shifted to its subtorus), the exit uplink, the
        upper fabric's ``port_links``, the entry downlink and the
        destination's down-leg.  Every route is wrapped in the pair's NIC
        links.
        """
        src, dst = self._check_endpoints(src, dst)
        src_sub, src_local = np.divmod(src, self.plan.nodes)
        dst_sub, dst_local = np.divmod(dst, self.plan.nodes)
        inter = src_sub != dst_sub
        if inter.all():
            return self._inter_routes(src, dst, src_sub, src_local,
                                      dst_sub, dst_local)
        if not inter.any():
            return self._intra_routes(src, dst, src_sub, src_local,
                                      dst_local)
        intra = ~inter
        return walks.concat_rows(
            walks.spread(intra, self._intra_routes(
                src[intra], dst[intra], src_sub[intra], src_local[intra],
                dst_local[intra])),
            walks.spread(inter, self._inter_routes(
                src[inter], dst[inter], src_sub[inter], src_local[inter],
                dst_sub[inter], dst_local[inter])))

    def _intra_routes(self, src, dst, sub, src_local, dst_local) -> walks.CSR:
        """:meth:`routes` of same-subtorus pairs."""
        grid, keep = dor.path_links(src_local, dst_local, self.plan.dims)
        grid += sub * self.links_per_subtorus
        return self._grid_routes(src, dst, (grid, keep))

    def _inter_routes(self, src, dst, src_sub, src_local, dst_sub,
                      dst_local) -> walks.CSR:
        """:meth:`routes` of pairs in different subtori."""
        per_subtorus = len(self.plan.uplinked)
        exit_port = src_sub * per_subtorus + self._exit_rank[src_local]
        entry_port = dst_sub * per_subtorus + self._exit_rank[dst_local]
        grid, keep = self.fabric.port_links(exit_port, entry_port)
        grid += self._fabric_first
        up, up_keep = self._up_leg
        down, down_keep = self._down_leg
        shift = self.links_per_subtorus
        up = np.take(up, src_local, axis=1)
        up += src_sub * shift
        down = np.take(down, dst_local, axis=1)
        down += dst_sub * shift
        return self._grid_routes(
            src, dst, (up, np.take(up_keep, src_local, axis=1)),
            (self._uplink_first + 2 * exit_port, None),
            (grid, keep),
            (self._uplink_first + 2 * entry_port + 1, None),
            (down, np.take(down_keep, dst_local, axis=1)))

    def candidate_routes(self, src: np.ndarray, dst: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every minimal nested route of many pairs, deterministic first.

        A same-subtorus pair has its subtorus's minimal DOR routes (the
        wrap-tie variants of :func:`~repro.routing.dor.path_links`).  Any
        other pair crosses, in enumeration order, each tied exit uplink
        (:attr:`SubtorusPlan.tied_table`, designated first) x each tied
        entry uplink x each up-leg variant x each upper-fabric walk
        (``port_links`` variants) x each down-leg variant.  The legs to
        tied uplinks are equally long, so an exit/entry combination is
        kept when its fabric walk is as long as the designated
        combination's: an alternate exit port can sit closer to or
        further from the entry port in the upper fabric.  The cap keeps
        the first :data:`MAX_ROUTE_CANDIDATES` in that order.
        """
        src, dst = self._check_endpoints(src, dst)
        src_sub, src_local = np.divmod(src, self.plan.nodes)
        dst_sub, dst_local = np.divmod(dst, self.plan.nodes)
        inter = src_sub != dst_sub
        counts = np.empty(src.shape[0], dtype=np.int64)
        parts = []
        for rows, build in ((~inter, self._intra_candidates),
                            (inter, self._inter_candidates)):
            if rows.any():
                counts[rows], *routes = build(
                    src[rows], dst[rows], src_sub[rows], src_local[rows],
                    dst_sub[rows], dst_local[rows])
                parts.append((rows, routes))
        pair_ptr = walks.from_lengths(counts)
        if not parts:
            return pair_ptr, pair_ptr, np.empty(0, dtype=np.int64)
        if len(parts) == 1:
            return (pair_ptr, *parts[0][1])
        # each kind's routes, spread over the routes of every pair
        return (pair_ptr, *walks.concat_rows(
            *(walks.spread(np.repeat(rows, counts), part)
              for rows, part in parts)))

    def _intra_candidates(self, src, dst, sub, src_local, _dst_sub,
                          dst_local) -> tuple[np.ndarray, ...]:
        """Candidate counts and routes of same-subtorus pairs."""
        ties = dor.wrap_ties(src_local, dst_local, self.plan.dims)
        counts = np.minimum(1 << ties.sum(axis=0), MAX_ROUTE_CANDIDATES)
        _, pair, variant = walks.expand(counts)
        grid, keep = dor.path_links(src_local[pair], dst_local[pair],
                                    self.plan.dims, variant=variant)
        grid += sub[pair] * self.links_per_subtorus
        return (counts,
                *self._grid_routes(src[pair], dst[pair], (grid, keep)))

    def _inter_candidates(self, src, dst, src_sub, src_local, dst_sub,
                          dst_local) -> tuple[np.ndarray, ...]:
        """Candidate counts and routes of pairs in different subtori."""
        plan = self.plan
        table, tied = plan.tied_table
        per_subtorus = len(plan.uplinked)
        # every (exit, entry) uplink combination of every pair, exits
        # outermost
        combo_ptr, pair, at = walks.expand(tied[src_local] * tied[dst_local])
        exit_at, entry_at = np.divmod(at, tied[dst_local][pair])
        us = table[src_local[pair], exit_at]
        ud = table[dst_local[pair], entry_at]
        exit_port = src_sub[pair] * per_subtorus + plan.rank_arr[us]
        entry_port = dst_sub[pair] * per_subtorus + plan.rank_arr[ud]
        fabric_walks, hops = self.fabric.port_choices(exit_port, entry_port)
        up = 1 << dor.wrap_ties(src_local[pair], us, plan.dims).sum(axis=0)
        down = 1 << dor.wrap_ties(ud, dst_local[pair], plan.dims).sum(axis=0)
        # minimal combinations, and the cap taken in enumeration order
        size = np.where(hops == hops[combo_ptr[:-1]][pair],
                        up * fabric_walks * down, 0)
        before = np.cumsum(size) - size
        before -= before[combo_ptr[:-1]][pair]
        take = np.clip(MAX_ROUTE_CANDIDATES - before, 0, size)
        counts = np.add.reduceat(take, combo_ptr[:-1])
        # every candidate: its combination, then up leg x fabric walk x
        # down leg, the down leg fastest
        _, combo, variant = walks.expand(take)
        variant, down_v = np.divmod(variant, down[combo])
        up_v, fabric_v = np.divmod(variant, fabric_walks[combo])
        pair = pair[combo]
        exit_port, entry_port = exit_port[combo], entry_port[combo]
        shift = self.links_per_subtorus
        up_grid, up_keep = dor.path_links(src_local[pair], us[combo],
                                          plan.dims, variant=up_v)
        up_grid += src_sub[pair] * shift
        grid, keep = self.fabric.port_links(exit_port, entry_port, fabric_v)
        grid += self._fabric_first
        down_grid, down_keep = dor.path_links(ud[combo], dst_local[pair],
                                              plan.dims, variant=down_v)
        down_grid += dst_sub[pair] * shift
        return (counts, *self._grid_routes(
            src[pair], dst[pair], (up_grid, up_keep),
            (self._uplink_first + 2 * exit_port, None),
            (grid, keep),
            (self._uplink_first + 2 * entry_port + 1, None),
            (down_grid, down_keep)))

    # --------------------------------------------------------------- analysis
    def _classify_links(self):
        """Refine ``network`` into the hybrid's three architectural tiers.

        ``lower_torus`` — links between two endpoints (intra-subtorus DOR
        cables); ``uplinks`` — endpoint <-> upper-tier switch access links;
        ``upper_fabric`` — switch <-> switch links of the fattree/GHC.
        """
        ep = self.num_endpoints
        nic_base = ep + self.num_switches
        srcs = np.asarray(self.links.sources, dtype=np.int64)
        dsts = np.asarray(self.links.destinations, dtype=np.int64)
        nic = (srcs >= nic_base) | (dsts >= nic_base)
        lower = (srcs < ep) & (dsts < ep)
        upper = ~nic & (srcs >= ep) & (dsts >= ep)
        index = np.ones(srcs.shape[0], dtype=np.int64)  # default: uplinks
        index[lower] = 0
        index[upper] = 2
        index[nic] = 3
        return ("lower_torus", "uplinks", "upper_fabric", "nic"), index

    def routing_diameter(self) -> int:
        """Exact worst-case hop count under the nested routing rule."""
        to_uplink = self.plan.max_hops_to_uplink()
        inter = to_uplink + 1 + self.fabric.routing_diameter() - 2 + 1 + to_uplink
        if self.num_subtori == 1:
            return self.plan.intra_diameter()
        return max(self.plan.intra_diameter(), inter)
