"""Link ids computed from the wiring layout, pinned to the link table.

The batched routes of the torus/mesh, fattree/thintree, GHC and nested
families never look a hop up: they compute its link id from the order in
which the family registers its links.  These tests hold that arithmetic
to ``LinkTable.ids_of`` over every link of small instances, and check
that a healthy ``routes()`` makes no lookup at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.routing import dor
from repro.topology import build
from repro.topology.fattree import FatTreeFabric
from repro.topology.ghc import GHCFabric
from repro.topology.linktable import LinkTable
from repro.topology.thintree import ThinTreeFabric

#: ``(radices, torus)``: radix 1, radix 2, odd radices and meshes
LAYOUTS = [((4, 4, 4), True), ((1, 3, 1), True), ((1,), True),
           ((2, 2, 4), True), ((2,), True), ((3, 5), True), ((5, 1, 3), True),
           ((4, 2, 3), False), ((2,), False), ((3, 1, 2), False),
           ((1, 1), False)]


def _table(src, dst) -> LinkTable:
    table = LinkTable()
    table.add_links(src, dst, 1.0)
    return table


def _pairs(n):
    return np.divmod(np.arange(n * n, dtype=np.int64), n)


def _column(grid, keep, i):
    return grid[keep[:, i], i].tolist()


@pytest.mark.parametrize("radices,torus", LAYOUTS,
                         ids=[f"{r}-{'torus' if t else 'mesh'}"
                              for r, t in LAYOUTS])
class TestDorLayout:
    def test_every_link_has_its_cell_ordinal(self, radices, torus):
        lay = dor.layout(radices, torus=torus)
        index = np.arange(lay.size, dtype=np.int64)
        grid, held = lay.neighbours(index)
        table = _table(*dor.neighbor_links(radices, torus=torus))
        cell = (index[:, None] * lay.width + np.arange(lay.width))[held]
        u = np.broadcast_to(index[:, None], grid.shape)[held]
        np.testing.assert_array_equal(lay.ordinals(cell),
                                      table.ids_of(u, grid[held]))
        assert table.num_links == held.sum()

    def test_path_links_are_the_walks_links(self, radices, torus):
        table = _table(*dor.neighbor_links(radices, torus=torus))
        n = int(np.prod(radices))
        src, dst = _pairs(n)
        grid, keep = dor.path_links(src, dst, radices, torus=torus)
        used = set()
        for i, (s, d) in enumerate(zip(src.tolist(), dst.tolist())):
            walk = [dor.coord_to_index(c, radices) for c in dor.path(
                dor.index_to_coord(s, radices),
                dor.index_to_coord(d, radices), radices, torus=torus)]
            hops = _column(grid, keep, i)
            assert hops == table.path_to_links(walk)
            used.update(hops)
        # every neighbour hop is some pair's one-hop DOR route
        assert used == set(range(table.num_links))


FABRICS = [FatTreeFabric((4, 4)), FatTreeFabric((2, 3, 2)),
           FatTreeFabric((4, 2, 2, 2)), ThinTreeFabric((4, 4, 2), (2, 1)),
           ThinTreeFabric((3, 3, 3), (2, 3)), ThinTreeFabric((4,), ()),
           GHCFabric((4, 3), 2), GHCFabric((2, 2, 3), 1),
           GHCFabric((5,), 3), GHCFabric((), 4)]


@pytest.mark.parametrize("fabric", FABRICS,
                         ids=[f"{type(f).__name__}-{i}"
                              for i, f in enumerate(FABRICS)])
def test_fabric_hops_are_their_cables(fabric):
    """Every fabric cable, in both directions, is some port pair's hop,
    and every hop is the link ``port_path`` crosses."""
    table = LinkTable()
    fabric.build_links(table, 0, 1.0)
    src, dst = _pairs(fabric.num_ports)
    grid, keep = fabric.port_links(src, dst)
    used = set()
    for i, (a, b) in enumerate(zip(src.tolist(), dst.tolist())):
        hops = _column(grid, keep, i)
        if a == b:
            assert hops == []
            continue
        assert hops == table.path_to_links(fabric.port_path(a, b))
        used.update(hops)
    assert used == set(range(table.num_links))


HYBRIDS = [("nesttree", 64, 2, 1), ("nesttree", 64, 2, 8),
           ("nestghc", 64, 2, 4), ("nesttree", 128, 4, 2),
           ("nestghc", 128, 4, 8), ("nesttree", 8, 1, 1)]


@pytest.mark.parametrize("family,n,t,u", HYBRIDS,
                         ids=[f"{f}({t},{u})-{n}" for f, n, t, u in HYBRIDS])
class TestHybridLayout:
    def test_legs_are_the_dor_walks_to_and_from_the_uplink(self, family, n,
                                                           t, u):
        topo = build(family, n, t=t, u=u)
        nodes = topo.plan.nodes
        up, up_keep = topo._up_leg
        down, down_keep = topo._down_leg
        assert up.shape[1] == down.shape[1] == nodes
        for e in range(n):
            sub, local = divmod(e, nodes)
            shift = sub * topo.links_per_subtorus
            exit_node = topo.designated_uplink(e)
            assert [shift + h for h in _column(up, up_keep, local)] == \
                topo.links.path_to_links(topo._local_path(e, exit_node))
            assert [shift + h for h in _column(down, down_keep, local)] == \
                topo.links.path_to_links(topo._local_path(exit_node, e))

    def test_uplink_ids_are_port_arithmetic(self, family, n, t, u):
        topo = build(family, n, t=t, u=u)
        offset = topo.num_endpoints
        for e in range(n):
            s, local = divmod(e, topo.plan.nodes)
            if local not in topo.plan.uplink_rank:
                continue
            port = topo.port_of(e)
            switch = offset + topo.fabric.port_switch(port)
            assert topo._uplink_first + 2 * port == topo.links.id_of(e,
                                                                     switch)
            assert topo._uplink_first + 2 * port + 1 == \
                topo.links.id_of(switch, e)


#: one healthy instance of each of the five families with layout routes
GUARDED = [("torus", 64, {}), ("torus", 64, {"dims": (4, 2, 8),
                                             "wraparound": False}),
           ("fattree", 64, {}), ("thintree", 64, {}), ("ghc", 64, {}),
           ("nesttree", 64, {"t": 2, "u": 4}),
           ("nestghc", 64, {"t": 2, "u": 8})]


@pytest.mark.parametrize("family,n,params", GUARDED,
                         ids=[f"{f}-{p}" for f, _, p in GUARDED])
def test_healthy_routes_make_no_lookup(family, n, params, monkeypatch):
    topo = build(family, n, **params)
    src, dst = _pairs(n)
    want = [topo.route(s, d) for s, d in zip(src.tolist(), dst.tolist())]

    def refuse(*args, **kwargs):
        raise AssertionError("routes() looked a link up")

    monkeypatch.setattr(LinkTable, "ids_of", refuse)
    # a fresh instance: nothing the first one cached is reused
    fresh = build(family, n, **params)
    indptr, links = fresh.routes(src, dst)
    assert [links[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])] \
        == want
