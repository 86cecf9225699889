"""Tests for k:k'-ary n-trees (over-subscribed thin trees)."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import simulate
from repro.errors import TopologyError
from repro.topology.fattree import FatTreeTopology
from repro.topology.thintree import ThinTreeFabric, ThinTreeTopology
from repro.units import DEFAULT_LINK_CAPACITY as CAP
from repro.workloads import UnstructuredApp
from tests import walk_oracle


class TestConstruction:
    def test_validation(self):
        with pytest.raises(TopologyError):
            ThinTreeFabric((4, 4), (8,))     # cannot widen
        with pytest.raises(TopologyError):
            ThinTreeFabric((4, 4), (2, 2))   # one up-arity too many
        with pytest.raises(TopologyError):
            ThinTreeFabric((4, 1), (2,))     # bad down arity

    def test_switch_count_thinner_than_fattree(self):
        fat = ThinTreeFabric((4, 4, 4), (4, 4))
        thin = ThinTreeFabric((4, 4, 4), (2, 2))
        assert thin.num_ports == fat.num_ports == 64
        assert thin.num_switches < fat.num_switches

    def test_switch_count_formula(self):
        # (4,4):(2,) -> level 1: 4 switches; level 2: 4/4 subtrees... 2
        fabric = ThinTreeFabric((4, 4), (2,))
        assert fabric.num_switches == 4 + 2

    def test_full_up_arities_match_fattree(self):
        thin = ThinTreeTopology((4, 4), (4,))
        fat = FatTreeTopology((4, 4))
        assert thin.num_switches == fat.num_switches
        assert thin.num_network_links == fat.num_network_links

    def test_oversubscription_ratio(self):
        assert ThinTreeFabric((4, 4), (2,)).oversubscription() == 2.0
        assert ThinTreeFabric((4, 4), (4,)).oversubscription() == 1.0

    def test_connected(self):
        topo = ThinTreeTopology((4, 4, 2), (2, 1))
        assert nx.is_connected(topo.to_networkx())


class TestRouting:
    @given(st.integers(0, 31), st.integers(0, 31))
    @settings(max_examples=100, deadline=None)
    def test_routes_are_valid_walks(self, src, dst):
        topo = ThinTreeTopology((4, 4, 2), (2, 2))
        p = topo.vertex_path(src, dst)
        assert p[0] == src and p[-1] == dst
        for a, b in zip(p, p[1:]):
            assert topo.links.has(a, b)
        assert len(set(p)) == len(p)

    @given(st.integers(0, 15), st.integers(0, 15))
    @settings(max_examples=80, deadline=None)
    def test_full_tree_routes_match_fattree_lengths(self, src, dst):
        thin = ThinTreeTopology((4, 4), (4,))
        fat = FatTreeTopology((4, 4))
        assert thin.hops(src, dst) == fat.hops(src, dst)

    def test_diameter(self):
        topo = ThinTreeTopology((4, 4), (2,))
        brute = max(topo.hops(s, d)
                    for s in range(16) for d in range(16) if s != d)
        assert topo.routing_diameter() == brute == 4

    def test_thinning_reduces_path_diversity(self):
        # from one source, climb switches used across all destinations
        thin = ThinTreeTopology((4, 4), (1,))
        ups = {thin.vertex_path(0, dst)[2] for dst in range(4, 16)}
        assert len(ups) == 1  # single up-port: no d-mod-k spreading left
        fat = ThinTreeTopology((4, 4), (4,))
        ups = {fat.vertex_path(0, dst)[2] for dst in range(4, 16)}
        assert len(ups) == 4


class TestBehaviour:
    def test_oversubscription_slows_global_traffic(self):
        flows = UnstructuredApp(32, messages_per_task=8, seed=0).build()
        fat = ThinTreeTopology((4, 4, 2), (4, 4))
        thin = ThinTreeTopology((4, 4, 2), (1, 1))
        t_fat = simulate(fat, flows).makespan
        t_thin = simulate(thin, flows).makespan
        assert t_thin > 1.3 * t_fat

    def test_local_traffic_unaffected_by_thinning(self):
        from repro.engine.flows import FlowBuilder

        b = FlowBuilder(32)
        for base in range(0, 32, 4):
            b.add_flow(base, base + 1, CAP / 10)  # same leaf switch
        flows = b.build()
        fat = ThinTreeTopology((4, 4, 2), (4, 4))
        thin = ThinTreeTopology((4, 4, 2), (1, 1))
        assert simulate(fat, flows).makespan == \
            pytest.approx(simulate(thin, flows).makespan)


class TestBatchedWalks:
    @pytest.mark.parametrize("down,up", [((4, 4), (2,)), ((4, 4, 2), (2, 1)),
                                         ((3, 3, 3), (2, 3)), ((2, 2), (1,))])
    def test_batch_matches_scalar_walks(self, down, up):
        import numpy as np

        from repro.topology.linktable import LinkTable

        fabric = ThinTreeFabric(down, up)
        table = LinkTable()
        fabric.build_links(table, 0, 1.0)
        pairs = [(a, b) for a in range(fabric.num_ports)
                 for b in range(fabric.num_ports) if a != b]
        grid, keep = fabric.port_links(*np.asarray(pairs).T)
        for i, (a, b) in enumerate(pairs):
            walk = fabric.port_path(a, b)
            assert walk == walk_oracle.tree_port_paths(fabric, a, b)[0]
            assert grid[keep[:, i], i].tolist() == table.path_to_links(walk)
