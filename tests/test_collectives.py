"""Tests for the Reduce and AllReduce workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import simulate
from repro.errors import WorkloadError
from repro.engine.flows import FlowBuilder
from repro.topology import TorusTopology
from repro.units import DEFAULT_LINK_CAPACITY as CAP
from repro.workloads import AllReduce, Reduce


def reference_allreduce(t: int, size: float) -> FlowBuilder:
    """Rank-by-rank recursive doubling through scalar builder calls: the
    loop the batched ``AllReduce.build`` must reproduce bitwise."""
    b = FlowBuilder(t)
    power = 1
    while power * 2 <= t:
        power *= 2
    pre = {extra - power: b.add_flow(extra, extra - power, size)
           for extra in range(power, t)}
    sends: dict[int, int] = {}
    step = 1
    while step < power:
        new_sends = {}
        for rank in range(power):
            if sends:
                after = [sends[rank], sends[rank ^ (step // 2)]]
            else:
                after = [pre[rank]] if rank in pre else []
            new_sends[rank] = b.add_flow(rank, rank ^ step, size, after=after)
        sends = new_sends
        step *= 2
    for extra in range(power, t):
        mirror = extra - power
        b.add_flow(mirror, extra, size,
                   after=[sends[mirror], sends[mirror ^ (step // 2)]])
    return b


def assert_flowsets_equal(a, b):
    assert a.num_tasks == b.num_tasks
    for name in ("src", "dst", "size", "weight", "indegree", "succ_indptr",
                 "succ_indices"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)


class TestReduce:
    def test_flow_count(self):
        fs = Reduce(16).build()
        assert fs.num_flows == 15
        assert fs.num_dependencies == 0

    def test_all_target_root(self):
        fs = Reduce(16, root=3).build()
        assert (fs.dst == 3).all()
        assert 3 not in fs.src

    @pytest.mark.parametrize("root", [0, 5, 16])
    def test_matches_scalar_reference(self, root):
        b = FlowBuilder(17)
        for t in range(17):
            if t != root:
                b.add_flow(t, root, 3.0)
        assert_flowsets_equal(Reduce(17, root=root, message_size=3.0).build(),
                              b.build())

    def test_root_validated(self):
        with pytest.raises(WorkloadError):
            Reduce(16, root=16)

    def test_consumption_port_serialisation(self):
        """Paper Section 5.2: the root's consumption port is the bottleneck,
        so every topology takes (N-1) * size / capacity."""
        fs = Reduce(16, message_size=CAP / 10).build()
        for dims in [(16,), (4, 4), (4, 2, 2)]:
            topo = TorusTopology(dims)
            r = simulate(topo, fs)
            assert r.makespan == pytest.approx(15 / 10), dims


class TestAllReduce:
    def test_power_of_two_flow_count(self):
        # log2(16) = 4 steps of 16 sends each
        fs = AllReduce(16).build()
        assert fs.num_flows == 16 * 4

    def test_non_power_of_two_adds_fold_phases(self):
        fs = AllReduce(10).build()
        # 2 pre + 8 * 3 steps + 2 post
        assert fs.num_flows == 2 + 8 * 3 + 2

    def test_two_tasks(self):
        fs = AllReduce(2).build()
        assert fs.num_flows == 2
        assert fs.num_dependencies == 0

    @pytest.mark.parametrize("tasks", [*range(2, 41), 63, 64, 65, 127, 200])
    def test_matches_scalar_reference(self, tasks):
        """Same flows, dependencies and CSR successor order as adding the
        flows rank by rank."""
        assert_flowsets_equal(AllReduce(tasks, message_size=5.0).build(),
                              reference_allreduce(tasks, 5.0).build())

    def test_partners_are_xor(self):
        fs = AllReduce(8).build()
        src = fs.src.reshape(3, 8)
        dst = fs.dst.reshape(3, 8)
        for step, dist in enumerate([1, 2, 4]):
            assert (dst[step] == (src[step] ^ dist)).all()

    def test_dependency_depth_is_log2(self):
        fs = AllReduce(64).build()
        assert fs.dependency_depth() == 6

    def test_dependencies_link_consecutive_steps(self):
        fs = AllReduce(4).build()
        # step-1 flows (ids 4..7) each wait on own + partner's step-0 send
        assert fs.indegree[:4].tolist() == [0, 0, 0, 0]
        assert fs.indegree[4:].tolist() == [2, 2, 2, 2]

    def test_simulated_time_scales_with_steps(self):
        topo = TorusTopology((16,))
        t4 = simulate(topo, AllReduce(4, message_size=CAP / 100).build())
        t16 = simulate(topo, AllReduce(16, message_size=CAP / 100).build())
        # 2 steps vs 4 steps: more steps -> strictly longer
        assert t16.makespan > t4.makespan

    def test_every_rank_ends_with_result(self):
        """In the final step every rank of the power-of-two core sends."""
        fs = AllReduce(32).build()
        last = fs.src[-32:]
        assert sorted(last.tolist()) == list(range(32))

    def test_completion_order_respects_steps(self):
        topo = TorusTopology((8,))
        fs = AllReduce(8, message_size=CAP / 50).build()
        times = simulate(topo, fs).completion_times.reshape(3, 8)
        assert (times[1] >= times[0].min()).all()
        assert times[2].min() >= times[0].max() - 1e-12
