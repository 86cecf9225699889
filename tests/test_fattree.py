"""Tests for the generalised fattree fabric and topology."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.topology import FatTreeFabric, FatTreeTopology
from repro.topology.linktable import LinkTable
from repro.topology.planner import fattree_arities
from tests import updown_oracle as updown


class TestFabricStructure:
    def test_switch_indices_are_dense_and_unique(self):
        fabric = FatTreeFabric((4, 4, 2))
        seen = set()
        for level in range(1, 4):
            group = 1
            for k in fabric.arities[:level]:
                group *= k
            per_subtree = group // fabric.arities[level - 1]
            for subtree in range(fabric.num_ports // group):
                for dv in range(per_subtree):
                    # dv's little-endian digits over the arities below
                    digits, rest = [], dv
                    for k in fabric.arities[:level - 1]:
                        digits.append(rest % k)
                        rest //= k
                    idx = fabric.switch_id(level, subtree, tuple(digits))
                    assert 0 <= idx < fabric.num_switches
                    seen.add(idx)
        assert len(seen) == fabric.num_switches

    def test_invalid_arities(self):
        with pytest.raises(TopologyError):
            FatTreeFabric((4, 1))
        with pytest.raises(TopologyError):
            FatTreeFabric(())

    def test_port_switch(self):
        fabric = FatTreeFabric((4, 2))
        assert fabric.port_switch(0) == fabric.port_switch(3)
        assert fabric.port_switch(3) != fabric.port_switch(4)
        with pytest.raises(TopologyError):
            fabric.port_switch(8)


class TestTopologyStructure:
    def test_counts(self, small_fattree):
        assert small_fattree.num_endpoints == 32
        assert small_fattree.num_switches == updown.switch_count((4, 4, 2))
        # duplex links: 32 access + (ports * (stages-1)) inter-switch
        assert small_fattree.num_network_links == 2 * (32 + 32 * 2)

    def test_connected(self, small_fattree):
        assert nx.is_connected(small_fattree.to_networkx())

    def test_switch_degrees_non_blocking(self):
        topo = FatTreeTopology((4, 4, 4))
        g = topo.to_networkx()
        for sw in range(topo.num_endpoints,
                        topo.num_endpoints + topo.num_switches):
            # every non-top switch has k down + k up; top has k down
            assert g.degree(sw) in (8, 4)

    def test_for_ports_uses_planner(self):
        topo = FatTreeTopology.for_ports(64)
        assert topo.num_endpoints == 64
        assert topo.fabric.arities == fattree_arities(64)


class TestRouting:
    @given(st.integers(0, 31), st.integers(0, 31))
    @settings(max_examples=100, deadline=None)
    def test_route_is_valid_walk(self, src, dst):
        topo = FatTreeTopology((4, 4, 2))
        p = topo.vertex_path(src, dst)
        assert p[0] == src and p[-1] == dst
        for a, b in zip(p, p[1:]):
            assert topo.links.has(a, b)
        assert len(set(p)) == len(p)

    def test_length_is_twice_nca_level(self, small_fattree):
        for src, dst in [(0, 1), (0, 4), (0, 16), (31, 0)]:
            assert small_fattree.hops(src, dst) == \
                2 * updown.nca_level(src, dst, (4, 4, 2))

    def test_routing_is_minimal(self, small_fattree):
        g = small_fattree.to_networkx()
        for src in range(0, 32, 7):
            lengths = nx.single_source_shortest_path_length(g, src)
            for dst in range(32):
                if dst != src:
                    assert small_fattree.hops(src, dst) == lengths[dst]

    def test_diameter(self, small_fattree):
        assert small_fattree.routing_diameter() == 6
        assert max(small_fattree.hops(s, d)
                   for s in range(32) for d in range(32) if s != d) == 6

    def test_dmodk_spreads_paths(self):
        # flows to different destinations from one source should climb
        # through different level-2 switches (d-mod-k balancing)
        topo = FatTreeTopology((4, 4))
        ups = {topo.vertex_path(0, dst)[2] for dst in range(4, 16)}
        assert len(ups) == 4  # all four up-ports used


class TestFabricLinkCount:
    @pytest.mark.parametrize("arities", [(2, 2), (4, 2), (4, 4, 2), (3, 3, 3)])
    def test_interswitch_links(self, arities):
        from repro.topology.linktable import LinkTable

        fabric = FatTreeFabric(arities)
        table = LinkTable()
        fabric.build_links(table, 0, 1.0)
        # each of the n-1 stage boundaries carries `ports` duplex links
        expected = 2 * fabric.num_ports * (len(arities) - 1)
        assert table.num_links == expected


class TestMatchesUpDownOracle:
    """The fabric's array-built walks are the reference UP*/DOWN* rule's,
    switch for switch and link for link, every minimal walk of every
    port pair in order."""

    @pytest.mark.parametrize("arities", [(2, 4), (4, 4, 2), (3, 3, 3),
                                         (4, 2, 2, 2)])
    def test_walks_match_oracle(self, arities):
        import numpy as np

        fabric = FatTreeFabric(arities)

        def ids(walk):
            return [fabric.switch_id(s.level, s.subtree, s.digits)
                    for s in walk]

        table = LinkTable()
        fabric.build_links(table, 0, 1.0)
        pairs = [(a, b) for a in range(fabric.num_ports)
                 for b in range(fabric.num_ports) if a != b]
        src, dst = np.asarray(pairs).T
        grid, keep = fabric.port_links(src, dst)
        walks, _ = fabric.port_choices(src, dst)
        variants = [fabric.port_links(src, dst, np.full(len(pairs), v))
                    for v in range(int(walks.max()))]
        for i, (a, b) in enumerate(pairs):
            det = fabric.port_path(a, b)
            assert grid[keep[:, i], i].tolist() == table.path_to_links(det)
            if fabric.port_switch(a) == fabric.port_switch(b):
                assert det == [fabric.port_switch(a)] and walks[i] == 1
                continue
            want = [ids(w) for w in updown.switch_paths(a, b, arities)]
            assert det == ids(updown.switch_path(a, b, arities)) == want[0]
            assert walks[i] == len(want)
            assert [g[k[:, i], i].tolist() for g, k in variants[:len(want)]] \
                == [table.path_to_links(w) for w in want]
