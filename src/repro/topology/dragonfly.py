"""Dragonfly topology (related-work comparator).

The paper's related work singles out the Dragonfly (Kim et al., ISCA'08;
Cray Cascade) as "one of the latest network organizations that is getting
a great interest from the community" and notes its sensitivity to adverse
patterns.  This implementation lets the design-space sweeps include it:

* ``a`` routers per group, fully meshed (one local hop within a group),
* ``p`` endpoints per router,
* ``h`` global ports per router; group pairs are connected by exactly one
  cable using the *absolute* arrangement (group ``i``'s port towards group
  ``j`` is ``j`` minus one if ``j > i``), supporting any group count up to
  the canonical ``a*h + 1``.

Routing is minimal: local hop to the gateway router, one global hop, local
hop to the destination router — diameter 5 including access links.  The
pathological behaviour the paper mentions (adversarial group-to-group
traffic saturating single global cables) emerges naturally and is covered
by tests.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TopologyError
from repro.topology.base import Topology
from repro.units import DEFAULT_LINK_CAPACITY


def plan_dragonfly(num_endpoints: int) -> tuple[int, int, int, int]:
    """Choose balanced-ish ``(p, a, h, groups)`` for an endpoint count.

    Uses the classic balancing rule ``a = 2h, p = h`` with the smallest
    ``h`` in {1, 2, 4, 8, 16} whose group size divides ``num_endpoints``
    into an admissible group count (``2 <= groups <= a*h + 1``).
    """
    for h in (1, 2, 4, 8, 16):
        a, p = 2 * h, h
        group_size = p * a
        if num_endpoints % group_size:
            continue
        groups = num_endpoints // group_size
        if 2 <= groups <= a * h + 1:
            return p, a, h, groups
    raise TopologyError(
        f"no balanced dragonfly tiles {num_endpoints} endpoints")


class DragonflyTopology(Topology):
    """Canonical one-cable-per-group-pair dragonfly."""

    name = "dragonfly"

    def __init__(self, p: int, a: int, h: int, groups: int, *,
                 valiant: bool = False,
                 link_capacity: float = DEFAULT_LINK_CAPACITY,
                 nic_capacity: float | None = None) -> None:
        if min(p, a, h, groups) < 1 or groups < 2:
            raise TopologyError(
                f"invalid dragonfly parameters p={p} a={a} h={h} g={groups}")
        if groups > a * h + 1:
            raise TopologyError(
                f"{groups} groups exceed the {a * h} global ports per group "
                f"(max {a * h + 1})")
        super().__init__(p * a * groups, a * groups, link_capacity,
                         nic_capacity)
        self.p, self.a, self.h, self.groups = p, a, h, groups
        self.valiant = valiant
        if valiant:
            self.name = "dragonfly-valiant"
        self._switch_offset = self.num_endpoints

        offset = self._switch_offset
        # intra-group full mesh: group by group, router pairs r1 < r2
        r1, r2 = np.triu_indices(a, 1)
        first = offset + np.arange(groups, dtype=np.int64)[:, None] * a
        self.links.add_cables((first + r1).ravel(), (first + r2).ravel(),
                              link_capacity)
        # one global cable per group pair gi < gj (absolute arrangement:
        # gi's port towards gj is gj - 1, gj's port towards gi is gi)
        gi, gj = np.triu_indices(groups, 1)
        self.links.add_cables(offset + gi * a + (gj - 1) // h,
                              offset + gj * a + gi // h, link_capacity)
        # endpoint access links
        ends = np.arange(self.num_endpoints, dtype=np.int64)
        self.links.add_cables(ends, offset + ends // p, link_capacity)
        self._finalize()

    # ---------------------------------------------------------------- layout
    def _router(self, group: int, router: int) -> int:
        return self._switch_offset + group * self.a + router

    def _router_of(self, endpoint: int) -> int:
        return self._switch_offset + endpoint // self.p

    def group_of(self, endpoint: int) -> int:
        """Which dragonfly group an endpoint belongs to."""
        self._check_endpoint(endpoint)
        return endpoint // (self.p * self.a)

    def _gateway(self, src_group: int, dst_group: int) -> int:
        """The router of ``src_group`` holding the cable to ``dst_group``."""
        port = dst_group - 1 if dst_group > src_group else dst_group
        return self._router(src_group, port // self.h)

    # ---------------------------------------------------------------- routing
    def vertex_path(self, src: int, dst: int) -> list[int]:
        self._check_endpoint(src)
        self._check_endpoint(dst)
        if src == dst:
            return [src]
        r_src, r_dst = self._router_of(src), self._router_of(dst)
        if r_src == r_dst:
            return [src, r_src, dst]
        g_src, g_dst = self.group_of(src), self.group_of(dst)
        if g_src == g_dst:
            return [src, r_src, r_dst, dst]  # one local hop
        if self.valiant and self.groups > 2:
            via = self._intermediate_group(src, dst, g_src, g_dst)
            routers = (self._group_crossing(r_src, g_src, via)
                       + self._group_crossing(self._gateway(via, g_src),
                                              via, g_dst))
            routers = self._dedupe(routers + [r_dst])
        else:
            routers = self._dedupe(
                self._group_crossing(r_src, g_src, g_dst) + [r_dst])
        return [src, *routers, dst]

    def _group_crossing(self, at_router: int, group: int,
                        to_group: int) -> list[int]:
        """Routers visited from ``at_router`` up to arrival in ``to_group``."""
        ga = self._gateway(group, to_group)
        gb = self._gateway(to_group, group)
        if ga == at_router:
            return [at_router, gb]
        return [at_router, ga, gb]

    def _intermediate_group(self, src: int, dst: int,
                            g_src: int, g_dst: int) -> int:
        """Deterministic per-pair random-ish intermediate group (Valiant)."""
        via = (src * 2654435761 + dst * 40503 + 12345) % self.groups
        while via in (g_src, g_dst):
            via = (via + 1) % self.groups
        return via

    @staticmethod
    def _dedupe(vertices: list[int]) -> list[int]:
        out = [vertices[0]]
        for v in vertices[1:]:
            if v != out[-1]:
                out.append(v)
        return out

    # --------------------------------------------------------------- analysis
    def routing_diameter(self) -> int:
        """Worst-case hop count including the two access links."""
        if self.groups < 2:
            return 3
        if self.valiant and self.groups > 2:
            return 7  # up to 3 local + 2 global router hops
        return 5

    def describe(self) -> str:
        base = super().describe()
        return (f"{base} [p={self.p}, a={self.a}, h={self.h}, "
                f"{self.groups} groups]")
