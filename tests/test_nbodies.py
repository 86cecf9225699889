"""Tests for the n-Bodies half-ring workload."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import simulate
from repro.errors import WorkloadError
from repro.topology import TorusTopology
from repro.units import DEFAULT_LINK_CAPACITY as CAP
from repro.workloads import NBodies


class TestStructure:
    def test_flow_count(self):
        fs = NBodies(8).build()
        assert fs.num_flows == 8 * 4  # T chains of T//2 hops

    def test_chain_hops_are_ring_neighbours(self):
        fs = NBodies(8).build()
        assert ((fs.dst - fs.src) % 8 == 1).all()

    def test_every_task_starts_a_chain(self):
        fs = NBodies(8).build()
        roots = fs.roots()
        assert sorted(fs.src[roots].tolist()) == list(range(8))

    def test_chains_are_sequential(self):
        fs = NBodies(8).build()
        assert fs.dependency_depth() == 4
        # each non-root flow waits on exactly one predecessor
        assert sorted(np.unique(fs.indegree).tolist()) == [0, 1]

    def test_custom_hop_count(self):
        fs = NBodies(8, hops=2).build()
        assert fs.num_flows == 16
        assert fs.dependency_depth() == 2

    def test_invalid_hops(self):
        with pytest.raises(WorkloadError):
            NBodies(8, hops=0)
        with pytest.raises(WorkloadError):
            NBodies(8, hops=8)


class TestBehaviour:
    def test_ring_topology_pipelines_perfectly(self):
        """On a matched ring every hop is one link; chains pipeline and the
        run takes hops * (size / capacity) once the ring is saturated."""
        t = 8
        size = CAP / 10
        fs = NBodies(t, message_size=size).build()
        topo = TorusTopology((t,))
        r = simulate(topo, fs)
        # each directed ring link carries T//2 chain hops at full rate +
        # NIC contention; lower bound is (T//2) * size / CAP
        assert r.makespan >= (t // 2) * size / CAP - 1e-12

    def test_all_chains_advance_in_lockstep(self):
        t = 8
        fs = NBodies(t, message_size=CAP / 20).build()
        topo = TorusTopology((t,))
        times = simulate(topo, fs).completion_times.reshape(t, t // 2)
        # by symmetry every chain's k-th hop completes at the same time
        for k in range(t // 2):
            assert np.allclose(times[:, k], times[0, k])
