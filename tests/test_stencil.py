"""Tests for the grid-structured workloads: Sweep3D, Flood, NearNeighbors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import simulate
from repro.errors import WorkloadError
from repro.routing import dor
from repro.topology import TorusTopology
from repro.units import DEFAULT_LINK_CAPACITY as CAP
from repro.workloads import Flood, NearNeighbors, Sweep3D


class TestSweep3D:
    def test_flow_count(self):
        # 4x4x4 grid: 3 * 4^2 * (4-1) = 144 forwarding flows
        wl = Sweep3D(64)
        fs = wl.build()
        gx, gy, gz = wl.grid_dims
        expected = gy * gz * (gx - 1) + gx * gz * (gy - 1) + gx * gy * (gz - 1)
        assert fs.num_flows == expected

    def test_corner_task_is_the_only_root_sender(self):
        wl = Sweep3D(64)
        fs = wl.build()
        roots = fs.roots()
        assert set(fs.src[roots].tolist()) == {0}

    def test_wavefront_depth(self):
        wl = Sweep3D(64)
        # longest chain: corner to corner = sum(dims - 1) hops
        assert wl.build().dependency_depth() == sum(d - 1 for d in wl.grid_dims)

    def test_wavefront_completion_order(self):
        wl = Sweep3D(27)
        fs = wl.build()
        topo = TorusTopology((27,))
        times = simulate(topo, fs).completion_times
        # a flow from a deeper diagonal can never finish before the shallowest
        # flow of an earlier diagonal has delivered (wavefront causality)
        depth = np.array([sum(wl.coord(int(s))) for s in fs.src])
        for level in range(1, depth.max() + 1):
            assert times[depth == level].min() > \
                times[depth == level - 1].min()
        # the corner's sends are the first to finish overall
        first = np.nonzero(fs.src == 0)[0]
        assert times[first].min() == pytest.approx(times.min())

    def test_multiple_sweeps_chain(self):
        one = Sweep3D(27, sweeps=1).build()
        two = Sweep3D(27, sweeps=2).build()
        assert two.num_flows == 2 * one.num_flows
        assert two.dependency_depth() > one.dependency_depth()

    def test_invalid_sweeps(self):
        with pytest.raises(WorkloadError):
            Sweep3D(27, sweeps=0)


class TestFlood:
    def test_source_is_grid_centre(self):
        wl = Flood(64)
        assert wl.coord(wl.source) == tuple(k // 2 for k in wl.grid_dims)

    def test_flows_point_outward(self):
        wl = Flood(64, wavefronts=1)
        fs = wl.build()
        src_c = wl.coord(wl.source)
        for s, d in zip(fs.src.tolist(), fs.dst.tolist()):
            ds = dor.distance(src_c, wl.coord(s), wl.grid_dims, torus=False)
            dd = dor.distance(src_c, wl.coord(d), wl.grid_dims, torus=False)
            assert dd == ds + 1

    def test_wavefront_scaling(self):
        one = Flood(64, wavefronts=1).build()
        three = Flood(64, wavefronts=3).build()
        assert three.num_flows == 3 * one.num_flows

    def test_source_flows_are_roots(self):
        wl = Flood(64, wavefronts=2)
        fs = wl.build()
        roots = set(fs.roots().tolist())
        first_wave_source = [i for i in range(fs.num_flows)
                             if fs.src[i] == wl.source and i in roots]
        assert first_wave_source  # the source starts the flood

    def test_heavier_than_sweep(self):
        # flood pushes more concurrent wavefronts -> more flows
        assert Flood(64, wavefronts=4).build().num_flows > \
            Sweep3D(64).build().num_flows


class TestNearNeighbors:
    def test_flow_count_per_round(self):
        wl = NearNeighbors(64, rounds=1)   # default: 2-D 9-point stencil
        fs = wl.build()
        assert wl.grid_dims == (8, 8)
        assert fs.num_flows == 64 * 8     # 8 wraparound neighbours each

    def test_grid_is_widest_first(self):
        assert NearNeighbors(512).grid_dims == (32, 16)

    def test_3d_variant_flow_count(self):
        wl = NearNeighbors(64, rounds=1, dims=3, diagonals=False)
        fs = wl.build()
        per_task = len(dor.neighbors((1, 1, 1), wl.grid_dims))
        assert fs.num_flows == 64 * per_task

    def test_rounds_scale_flows(self):
        assert NearNeighbors(64, rounds=3).build().num_flows == \
            3 * NearNeighbors(64, rounds=1).build().num_flows

    def test_first_round_all_concurrent(self):
        fs = NearNeighbors(64, rounds=2).build()
        half = fs.num_flows // 2
        assert (fs.indegree[:half] == 0).all()
        assert (fs.indegree[half:] > 0).all()

    def test_depth_equals_rounds(self):
        assert NearNeighbors(64, rounds=3).build().dependency_depth() == 3

    def test_all_tasks_inject(self):
        fs = NearNeighbors(64, rounds=1).build()
        assert set(fs.src.tolist()) == set(range(64))

    def test_3d_stencil_matches_torus(self):
        """A torus-aligned (3-D) stencil travels one physical hop per halo."""
        wl = NearNeighbors(64, rounds=1, dims=3, diagonals=False,
                           message_size=CAP / 100)
        topo = TorusTopology(wl.grid_dims)
        for s, d in zip(wl.build().src[:20], wl.build().dst[:20]):
            assert topo.hops(int(s), int(d)) == 1

    def test_2d_stencil_strides_across_a_torus(self):
        """The default 2-D decomposition does NOT align with a 3-D torus:
        one stencil direction is multiple physical hops away, which is what
        makes the torus lose this workload in the paper's Figure 4."""
        wl = NearNeighbors(512, rounds=1, message_size=CAP / 100)
        topo = TorusTopology.cubic(512)
        hops = [topo.hops(int(s), int(d))
                for s, d in zip(wl.build().src, wl.build().dst)]
        assert max(hops) > 1

    def test_invalid_rounds(self):
        with pytest.raises(WorkloadError):
            NearNeighbors(64, rounds=0)


class TestGridValidation:
    def test_prime_task_count_rejected(self):
        with pytest.raises(WorkloadError):
            Sweep3D(7)
