"""Tests for the MapReduce workload."""

from __future__ import annotations

import pytest

from repro.engine import simulate
from repro.errors import WorkloadError
from repro.topology import TorusTopology
from repro.units import DEFAULT_LINK_CAPACITY as CAP
from repro.workloads import MapReduce


class TestStructure:
    def test_flow_count(self):
        t = 8
        fs = MapReduce(t).build()
        # scatter (t-1) + shuffle t(t-1) + gather (t-1)
        assert fs.num_flows == (t - 1) + t * (t - 1) + (t - 1)

    def test_three_phase_dependency_depth(self):
        fs = MapReduce(8).build()
        assert fs.dependency_depth() == 3

    def test_scatter_has_no_dependencies(self):
        fs = MapReduce(8).build()
        assert (fs.indegree[:7] == 0).all()

    def test_gather_waits_for_all_fragments(self):
        t = 8
        fs = MapReduce(t).build()
        # the last t-1 flows are gathers; each waits for t-1 incoming
        assert (fs.indegree[-(t - 1):] == t - 1).all()

    def test_shuffle_fragment_size(self):
        fs = MapReduce(8, partition_size=8.0).build()
        # shuffle flows carry partition/t bits
        shuffle = fs.size[7:-7]
        assert (shuffle == 1.0).all()

    def test_root_validated(self):
        with pytest.raises(WorkloadError):
            MapReduce(8, root=9)


class TestBehaviour:
    def test_root_consumption_bounds_runtime(self):
        t = 8
        part = CAP / 10
        fs = MapReduce(t, partition_size=part).build()
        topo = TorusTopology((t,))
        r = simulate(topo, fs)
        # scatter: root injects (t-1) partitions; gather: root consumes the
        # same amount; both serialise at the root NIC
        lower = 2 * (t - 1) * part / CAP
        assert r.makespan >= lower

    def test_phases_are_ordered(self):
        t = 6
        fs = MapReduce(t, partition_size=CAP / 100).build()
        topo = TorusTopology((t,))
        times = simulate(topo, fs).completion_times
        scatter_end = times[:t - 1].max()
        gather_start = times[-(t - 1):].min()
        assert gather_start > scatter_end
