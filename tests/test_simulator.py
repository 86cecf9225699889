"""Tests for the event-driven flow simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import simulate
from repro.engine.flows import FlowBuilder
from repro.errors import SimulationError
from repro.topology import TorusTopology
from repro.units import DEFAULT_LINK_CAPACITY as CAP


@pytest.fixture(scope="module")
def line() -> TorusTopology:
    """A 1-D mesh 0-1-2-3 (no wraparound ambiguity)."""
    return TorusTopology((4,), wraparound=False)


class TestSingleFlows:
    def test_uncontended_time_is_size_over_capacity(self, line):
        b = FlowBuilder(4)
        b.add_flow(0, 1, CAP)  # exactly one second of data
        r = simulate(line, b.build())
        assert r.makespan == pytest.approx(1.0)

    def test_path_length_does_not_change_time(self, line):
        # flow-level model: rate is the bottleneck share, not hop count
        b = FlowBuilder(4)
        b.add_flow(0, 3, CAP)
        assert simulate(line, b.build()).makespan == pytest.approx(1.0)

    def test_self_flow_is_zero_hop(self, line):
        # co-located tasks exchange data without touching the network (or
        # the NIC): the flow completes the instant it is released
        b = FlowBuilder(4)
        b.add_flow(2, 2, CAP / 2)
        r = simulate(line, b.build())
        assert r.makespan == 0.0
        assert r.completion_times[0] == r.start_times[0] == 0.0


class TestSharing:
    def test_two_flows_share_a_link(self, line):
        b = FlowBuilder(4)
        b.add_flow(0, 3, CAP)
        b.add_flow(0, 3, CAP)
        # both share the injection link at CAP/2
        r = simulate(line, b.build())
        assert r.makespan == pytest.approx(2.0)

    def test_disjoint_flows_run_concurrently(self, line):
        b = FlowBuilder(4)
        b.add_flow(0, 1, CAP)
        b.add_flow(2, 3, CAP)
        assert simulate(line, b.build()).makespan == pytest.approx(1.0)

    def test_freed_bandwidth_is_redistributed_exact(self, line):
        # one short and one long flow share a link; when the short one
        # finishes, the long one speeds up to full rate
        b = FlowBuilder(4)
        b.add_flow(0, 3, CAP)        # long: 1 s of data
        b.add_flow(0, 3, CAP / 2)    # short: 0.5 s of data
        r = simulate(line, b.build(), fidelity="exact")
        # both at CAP/2 until t=1 (short done), then long at CAP: total 1.5 s
        assert r.makespan == pytest.approx(1.5)

    def test_reduce_serialises_on_consumption_port(self, line):
        b = FlowBuilder(4)
        for t in (0, 1, 3):
            b.add_flow(t, 2, CAP)
        r = simulate(line, b.build())
        # 3 seconds of data through one 10 Gbps consumption link
        assert r.makespan == pytest.approx(3.0)


class TestDependencies:
    def test_chain_is_sequential(self, line):
        b = FlowBuilder(4)
        f1 = b.add_flow(0, 1, CAP)
        f2 = b.add_flow(1, 2, CAP, after=[f1])
        b.add_flow(2, 3, CAP, after=[f2])
        r = simulate(line, b.build())
        assert r.makespan == pytest.approx(3.0)

    def test_completion_respects_dag(self, line):
        b = FlowBuilder(4)
        fids = []
        prev = None
        for i in range(6):
            prev = b.add_flow(i % 3, (i + 1) % 3, CAP * 0.1,
                              after=[prev] if prev is not None else [])
            fids.append(prev)
        fs = b.build()
        r = simulate(line, fs)
        times = r.completion_times
        for pred in range(fs.num_flows):
            for succ in fs.successors(pred).tolist():
                assert times[succ] > times[pred] or \
                    times[succ] == pytest.approx(times[pred])

    def test_all_flows_complete(self, line):
        b = FlowBuilder(4)
        for i in range(10):
            b.add_flow(i % 4, (i + 1) % 4, CAP * (0.1 + 0.05 * i))
        r = simulate(line, b.build())
        assert not np.isnan(r.completion_times).any()
        assert r.makespan == pytest.approx(np.nanmax(r.completion_times))


class TestFidelity:
    def test_approx_close_to_exact(self, line):
        rng = np.random.default_rng(7)
        b = FlowBuilder(4)
        prev = {}
        for _ in range(120):
            s = int(rng.integers(4))
            d = int(rng.integers(4))
            after = [prev[s]] if s in prev else []
            prev[s] = b.add_flow(s, d, CAP * float(rng.uniform(0.01, 0.3)),
                                 after=after)
        fs = b.build()
        exact = simulate(line, fs, fidelity="exact").makespan
        approx = simulate(line, fs, fidelity="approx").makespan
        assert approx == pytest.approx(exact, rel=0.1)

    def test_unknown_fidelity_rejected(self, line):
        b = FlowBuilder(2)
        b.add_flow(0, 1, 1.0)
        with pytest.raises(SimulationError):
            simulate(line, b.build(), fidelity="heroic")


class TestPlacement:
    def test_identity_needs_enough_endpoints(self, line):
        b = FlowBuilder(8)
        b.add_flow(0, 7, 1.0)
        with pytest.raises(SimulationError):
            simulate(line, b.build())

    def test_custom_placement(self, line):
        b = FlowBuilder(2)
        b.add_flow(0, 1, CAP)
        placement = np.array([3, 0])
        r = simulate(line, b.build(), placement=placement)
        assert r.makespan == pytest.approx(1.0)

    def test_placement_shape_checked(self, line):
        b = FlowBuilder(2)
        b.add_flow(0, 1, 1.0)
        with pytest.raises(SimulationError):
            simulate(line, b.build(), placement=np.array([0]))

    def test_placement_range_checked(self, line):
        b = FlowBuilder(2)
        b.add_flow(0, 1, 1.0)
        with pytest.raises(SimulationError):
            simulate(line, b.build(), placement=np.array([0, 11]))


class TestEdgeCases:
    def test_empty_flowset(self, line):
        r = simulate(line, FlowBuilder(2).build())
        assert r.makespan == 0.0 and r.num_flows == 0

    def test_event_limit(self, line):
        b = FlowBuilder(4)
        prev = None
        for _ in range(10):
            prev = b.add_flow(0, 1, 1.0,
                              after=[prev] if prev is not None else [])
        with pytest.raises(SimulationError):
            simulate(line, b.build(), max_events=3)

    def test_capacity_scaling_halves_time(self):
        fast = TorusTopology((4,), wraparound=False, link_capacity=2 * CAP)
        slow = TorusTopology((4,), wraparound=False, link_capacity=CAP)
        b = FlowBuilder(4)
        b.add_flow(0, 3, CAP)
        b.add_flow(1, 3, CAP)
        fs = b.build()
        t_fast = simulate(fast, fs).makespan
        t_slow = simulate(slow, fs).makespan
        assert t_slow == pytest.approx(2 * t_fast)

    def test_result_metadata(self, line):
        b = FlowBuilder(4)
        b.add_flow(0, 1, CAP)
        r = simulate(line, b.build())
        assert r.num_flows == 1
        assert r.total_bits == CAP
        assert r.aggregate_throughput == pytest.approx(CAP)
        assert "makespan" in r.summary()


class TestZeroHopPlacements:
    """Oversubscribed placements: several tasks sharing one endpoint."""

    def test_duplicate_endpoint_placement_end_to_end(self, line):
        # both tasks of flow 0 land on endpoint 0 -> zero-hop, instant;
        # the downstream real flow is released at time zero
        b = FlowBuilder(3)
        z = b.add_flow(0, 1, CAP)
        b.add_flow(1, 2, CAP, after=[z])
        r = simulate(line, b.build(), placement=np.array([0, 0, 3]))
        assert r.completion_times[0] == r.start_times[0] == 0.0
        assert r.start_times[1] == 0.0
        assert r.makespan == pytest.approx(1.0)

    def test_zero_hop_completes_at_release_time(self, line):
        # a zero-hop flow released mid-run completes exactly then
        b = FlowBuilder(4)
        first = b.add_flow(0, 1, CAP)          # finishes at t=1
        b.add_flow(2, 3, CAP, after=[first])   # co-located -> instant
        r = simulate(line, b.build(), placement=np.array([0, 1, 2, 2]))
        assert r.start_times[1] == pytest.approx(1.0)
        assert r.completion_times[1] == pytest.approx(1.0)
        assert r.makespan == pytest.approx(1.0)

    def test_zero_hop_chain_cascades(self, line):
        # a whole chain of co-located flows collapses at its release time
        b = FlowBuilder(4)
        prev = b.add_flow(0, 1, CAP)
        for _ in range(5):
            prev = b.add_flow(1, 1, CAP, after=[prev])
        r = simulate(line, b.build(), placement=np.array([1, 1, 2, 3]))
        assert r.makespan == 0.0
        assert (r.completion_times == 0.0).all()

    @pytest.mark.parametrize("fidelity", ["exact", "approx"])
    def test_oversubscribed_collective(self, fidelity):
        # the ISSUE's headline scenario: a collective placed with more
        # tasks than endpoints used to crash the allocator
        from repro.topology import build as build_topology
        from repro.workloads import build as build_workload

        topo = build_topology("fattree", 8)
        wl = build_workload("allreduce", 16)
        placement = np.arange(16, dtype=np.int64) % 8  # two tasks/endpoint
        r = simulate(topo, wl.build(), placement=placement,
                     fidelity=fidelity)
        assert r.makespan > 0
        assert not np.isnan(r.completion_times).any()

    def test_route_cache_shared_across_calls(self, line):
        # an externally supplied route cache is filled and reused
        b = FlowBuilder(4)
        b.add_flow(0, 3, CAP)
        cache: dict = {}
        first = simulate(line, b.build(), route_cache=cache)
        assert (0, 3) in cache
        again = simulate(line, b.build(), route_cache=cache)
        assert again.makespan == first.makespan


class TestPlacementEdgeCases:
    """Regression tests for the zero-length placement and the warning-free
    non-finite deadline guard."""

    def test_zero_task_placement_is_vacuously_valid(self, line):
        # zero tasks used to crash _check_placement with numpy's opaque
        # "zero-size array to reduction operation" ValueError
        from dataclasses import replace

        from repro.engine.simulator import _check_placement

        empty = np.empty(0, dtype=np.int64)
        flows = replace(
            FlowBuilder(1).build(), num_tasks=0,
            src=empty, dst=empty, size=np.empty(0), weight=np.empty(0),
            indegree=empty)
        out = _check_placement(line, flows, empty)
        assert out.shape == (0,)
        # and the full simulate() path stays on the empty-workload exit
        r = simulate(line, flows, placement=empty)
        assert r.makespan == 0.0 and r.num_flows == 0

    def test_zero_rate_guard_emits_no_runtime_warning(self, line):
        # the non-finite deadline check must fire as a typed error without
        # numpy divide/invalid RuntimeWarnings escaping first
        import warnings

        from repro.engine.active import ActiveSet

        def zero_allocate(self, stats=None):
            if stats is not None:
                stats["iterations"] = 0
                stats["relevel"] = False
            self._rates[:self._m] = 0.0
            return self._rates[:self._m]

        b = FlowBuilder(4)
        b.add_flow(0, 1, CAP)
        flows = b.build()
        orig = ActiveSet.allocate
        ActiveSet.allocate = zero_allocate
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(SimulationError, match="non-finite"):
                    simulate(line, flows)
        finally:
            ActiveSet.allocate = orig


class TestNoHiddenSwitches:
    """One event loop, one fill backend, explicit parameters: behaviour
    is chosen by arguments, never by the process environment."""

    def test_engine_reads_no_environment(self):
        import importlib
        import inspect
        import pkgutil

        import repro.engine

        names = [repro.engine.__name__] + [
            info.name for info in pkgutil.walk_packages(
                repro.engine.__path__, prefix="repro.engine.")]
        assert "repro.engine.simulator" in names
        for name in names:
            source = inspect.getsource(importlib.import_module(name))
            for needle in ("environ", "getenv", "REPRO_"):
                assert needle not in source, f"{name} mentions {needle!r}"

    def test_simulate_has_no_allocator_switch(self):
        import inspect

        params = inspect.signature(simulate).parameters
        assert "allocator" not in params
        assert list(params)[:2] == ["topology", "flows"]
