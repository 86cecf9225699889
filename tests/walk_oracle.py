"""Reference candidate routes: every minimal walk, enumerated pair by pair.

The topologies compute each pair's candidate routes in batches from their
wiring layout (:meth:`repro.topology.base.Topology.candidate_routes`).
This module states the same sets as the per-pair vertex-walk enumerators
they replaced, and translates the walks through the link table, so the
tests (and the loop oracle, ``tests/oracle.py``) hold the batches to an
independent reference:

* tori and meshes: the cross product of each dimension's minimal wrap
  directions (:func:`dor_paths`);
* fattree and thin-tree fabrics: every up-digit per climbed level, the
  d-mod-k digit first (:func:`tree_port_paths`);
* GHC fabrics: every order of the differing dimensions
  (:func:`ecube_paths`);
* nested hybrids: tied exit uplink x tied entry uplink x up leg x fabric
  walk x down leg, filtered to the deterministic route's length and
  capped in that order (:func:`nested_walks`);
* degraded views: the rerouted deterministic walk, then the surviving
  walks among the base machine's capped candidates.

:func:`route_candidates` deduplicates a pair's walks, caps them at
``MAX_ROUTE_CANDIDATES`` and returns link-id routes, NIC links included.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from repro.routing import dor
from repro.topology.base import MAX_ROUTE_CANDIDATES, FabricTopology, Topology
from repro.topology.degraded import DegradedTopology
from repro.topology.ghc import GHCFabric
from repro.topology.hybrid import NestedTopology
from repro.topology.torus import TorusTopology

Coord = tuple[int, ...]


def wrap_deltas(src: int, dst: int, radix: int, *,
                torus: bool = True) -> tuple[int, ...]:
    """All minimal signed deltas from ``src`` to ``dst`` along one
    dimension, the positive one first on an exact tie."""
    if not torus:
        return (dst - src,)
    forward = (dst - src) % radix
    backward = forward - radix
    if forward < -backward:
        return (forward,)
    if forward > -backward:
        return (backward,)
    return (forward, backward)


def _walk(src: Coord, radices: Sequence[int],
          deltas: Sequence[int]) -> list[Coord]:
    cur = list(src)
    out = [tuple(src)]
    for dim, delta in enumerate(deltas):
        step = 1 if delta > 0 else -1
        for _ in range(abs(delta)):
            cur[dim] = (cur[dim] + step) % radices[dim]
            out.append(tuple(cur))
    return out


def dor_paths(src: Coord, dst: Coord, radices: Sequence[int], *,
              torus: bool = True) -> list[list[Coord]]:
    """Every minimal DOR coordinate walk, the deterministic one first;
    radix-2 ties reach the same neighbour either way and count once."""
    out: list[list[Coord]] = []
    for combo in itertools.product(*(
            wrap_deltas(s, d, k, torus=torus)
            for s, d, k in zip(src, dst, radices))):
        walk = _walk(src, radices, combo)
        if walk not in out:
            out.append(walk)
    return out


def ecube_paths(src: Coord, dst: Coord) -> list[list[Coord]]:
    """Every minimal GHC coordinate walk: one per order of the differing
    dimensions, ascending order first."""
    diff = [dim for dim in range(len(src)) if src[dim] != dst[dim]]
    out = []
    for order in itertools.permutations(diff):
        cur = list(src)
        walk = [tuple(cur)]
        for dim in order:
            cur[dim] = dst[dim]
            walk.append(tuple(cur))
        out.append(walk)
    return out


def tree_port_paths(fabric, src_port: int, dst_port: int) -> list[list[int]]:
    """Every minimal UP*/DOWN* switch walk of a fattree or thin-tree
    fabric: each up digit per climbed level, the d-mod-k digit first."""
    a, b = fabric.port_switch(src_port), fabric.port_switch(dst_port)
    if a == b:
        return [[a]]
    m = fabric.nca_level(src_port, dst_port)
    det = fabric._dst_digits(dst_port)
    choices = [(det[level - 1], *(x for x in range(fabric.up[level - 1])
                                  if x != det[level - 1]))
               for level in range(1, m)]
    return [fabric._walk(src_port, dst_port, m, combo)
            for combo in itertools.product(*choices)]


def ghc_port_paths(fabric: GHCFabric, src_port: int,
                   dst_port: int) -> list[list[int]]:
    """Every minimal switch walk of a GHC fabric."""
    a, b = fabric.port_switch(src_port), fabric.port_switch(dst_port)
    if a == b:
        return [[a]]
    return [[fabric.index_of(c) for c in walk]
            for walk in ecube_paths(fabric.coord_of(a), fabric.coord_of(b))]


def port_paths(fabric, src_port: int, dst_port: int) -> list[list[int]]:
    if isinstance(fabric, GHCFabric):
        return ghc_port_paths(fabric, src_port, dst_port)
    return tree_port_paths(fabric, src_port, dst_port)


def local_paths(topo: NestedTopology, a: int, b: int) -> list[list[int]]:
    """Every minimal DOR walk between endpoints of one subtorus."""
    nodes, dims = topo.plan.nodes, topo.plan.dims
    base = (a // nodes) * nodes
    return [[base + dor.coord_to_index(c, dims) for c in walk]
            for walk in dor_paths(dor.index_to_coord(a - base, dims),
                                  dor.index_to_coord(b - base, dims), dims)]


def nested_walks(topo: NestedTopology, src: int, dst: int) -> list[list[int]]:
    """Every minimal nested walk, deterministic first, capped in
    enumeration order."""
    if src == dst:
        return [[src]]
    if topo.subtorus_of(src) == topo.subtorus_of(dst):
        return local_paths(topo, src, dst)
    det_len = len(topo.vertex_path(src, dst))
    out: list[list[int]] = []
    for us in topo.tied_uplinks_of(src):
        for ud in topo.tied_uplinks_of(dst):
            bodies = port_paths(topo.fabric, topo.port_of(us),
                                topo.port_of(ud))
            for up in local_paths(topo, src, us):
                for body in bodies:
                    switches = [topo._switch_offset + s for s in body]
                    for down in local_paths(topo, ud, dst):
                        walk = up + switches + down
                        if len(walk) != det_len:
                            continue
                        out.append(walk)
                        if len(out) >= MAX_ROUTE_CANDIDATES:
                            return out
    return out


def vertex_walks(topo: Topology, src: int, dst: int) -> list[list[int]]:
    """Every minimal vertex walk ``src -> dst``, deterministic first."""
    if isinstance(topo, DegradedTopology):
        det = topo.vertex_path(src, dst)
        return [det, *(walk for walk in _capped(vertex_walks(topo.base, src,
                                                             dst))
                       if walk != det and _survives(topo, walk))]
    if isinstance(topo, NestedTopology):
        return nested_walks(topo, src, dst)
    if src == dst:
        return [[src]]
    if isinstance(topo, TorusTopology):
        return [[dor.coord_to_index(c, topo.dims) for c in walk]
                for walk in dor_paths(dor.index_to_coord(src, topo.dims),
                                      dor.index_to_coord(dst, topo.dims),
                                      topo.dims, torus=topo.wraparound)]
    if isinstance(topo, FabricTopology):
        offset = topo.num_endpoints
        return [[src, *(offset + s for s in body), dst]
                for body in port_paths(topo.fabric, src, dst)]
    return [topo.vertex_path(src, dst)]


def _capped(walks: list[list[int]]) -> list[list[int]]:
    """The first ``MAX_ROUTE_CANDIDATES`` distinct walks."""
    return [list(w) for w in dict.fromkeys(map(tuple, walks))][
        :MAX_ROUTE_CANDIDATES]


def _survives(topo: DegradedTopology, walk: list[int]) -> bool:
    mask = topo.disabled_link_mask()
    return not any(mask[lid] for lid in topo.links.path_to_links(walk))


def route_candidates(topo: Topology, src: int, dst: int) -> list[list[int]]:
    """The reference ``route_candidates(src, dst)``: the distinct walks
    of :func:`vertex_walks`, capped, as link-id routes."""
    inj = int(topo.injection_links[src])
    cons = int(topo.consumption_links[dst])
    return [[inj, *topo.links.path_to_links(walk), cons]
            for walk in _capped(vertex_walks(topo, src, dst))]
