"""Tests for the static link-load analysis mode."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import analyze, simulate
from repro.engine.flows import FlowBuilder
from repro.topology import NestTree, TorusTopology
from repro.units import DEFAULT_LINK_CAPACITY as CAP
from repro.workloads import UnstructuredApp


class TestLoads:
    def test_load_conservation(self):
        """Total link load equals sum over flows of size * route length."""
        topo = TorusTopology((4, 2))
        b = FlowBuilder(8)
        expected = 0.0
        rng = np.random.default_rng(3)
        for _ in range(30):
            s, d = int(rng.integers(8)), int(rng.integers(8))
            size = float(rng.uniform(1, 5))
            b.add_flow(s, d, size)
            if s != d:  # zero-hop flows load no link
                expected += size * len(topo.route(s, d))
        report = analyze(topo, b.build())
        assert report.loads.sum() == pytest.approx(expected)

    def test_single_flow_unit_load(self):
        topo = TorusTopology((4,), wraparound=False)
        b = FlowBuilder(4)
        b.add_flow(0, 2, 5.0)
        report = analyze(topo, b.build())
        route = topo.route(0, 2)
        assert np.allclose(report.loads[route], 5.0)
        others = np.setdiff1d(np.arange(len(report.loads)), route)
        assert np.allclose(report.loads[others], 0.0)

    def test_bottleneck_is_max_drain_time(self):
        topo = TorusTopology((4,), wraparound=False)
        b = FlowBuilder(4)
        for _ in range(3):
            b.add_flow(0, 1, CAP)
        report = analyze(topo, b.build())
        assert report.bottleneck_time == pytest.approx(3.0)

    def test_bottleneck_lower_bounds_dynamic_makespan(self):
        topo = NestTree(64, 2, 2)
        flows = UnstructuredApp(64, messages_per_task=4, seed=5).build()
        static = analyze(topo, flows)
        dynamic = simulate(topo, flows)
        assert static.bottleneck_time <= dynamic.makespan * (1 + 1e-9)


class TestTierBreakdown:
    def test_flat_topology_tiers(self):
        topo = TorusTopology((4, 2))
        b = FlowBuilder(8)
        b.add_flow(0, 5, 4.0)
        report = analyze(topo, b.build())
        assert set(report.tier_loads) == {"nic", "network"}
        assert report.tier_loads["nic"] == pytest.approx(8.0)  # inj + cons

    def test_nested_topology_tiers(self):
        topo = NestTree(64, 2, 2)
        flows = UnstructuredApp(64, messages_per_task=2, seed=1).build()
        report = analyze(topo, flows)
        assert set(report.tier_loads) == {
            "nic", "lower_torus", "uplinks", "upper_fabric"}
        assert sum(report.tier_loads.values()) == \
            pytest.approx(report.loads.sum())
        # with u=2 every inter-subtorus flow crosses uplinks
        assert report.tier_loads["uplinks"] > 0
        assert report.tier_loads["upper_fabric"] > 0

    def test_intra_only_traffic_never_uses_fabric(self):
        topo = NestTree(64, 2, 2)
        b = FlowBuilder(64)
        for base in range(0, 64, 8):
            b.add_flow(base, base + 7, 2.0)  # same subtorus
        report = analyze(topo, b.build())
        assert report.tier_loads["upper_fabric"] == 0.0
        assert report.tier_loads["uplinks"] == 0.0
        assert report.tier_loads["lower_torus"] > 0.0


class TestReportHelpers:
    def test_percentiles_and_summary(self):
        topo = TorusTopology((4,), wraparound=False)
        b = FlowBuilder(4)
        b.add_flow(0, 3, CAP)
        report = analyze(topo, b.build())
        pct = report.utilisation_percentiles()
        assert pct[100] == pytest.approx(1.0)
        assert pct[50] <= pct[100]
        assert "bottleneck" in report.summary()
        assert report.max_load >= report.mean_load


class TestRouteDedupe:
    """analyze() must route each distinct (src, dst) pair exactly once and
    share the simulator's route cache."""

    def test_duplicate_pairs_routed_once(self, monkeypatch):
        topo = TorusTopology((4, 2))
        calls: list[tuple[int, int]] = []
        orig, orig_batch = TorusTopology.route, TorusTopology.routes

        def counting_route(self, s, d):
            calls.append((s, d))
            return orig(self, s, d)

        def counting_routes(self, src, dst):
            calls.extend(zip(src.tolist(), dst.tolist()))
            return orig_batch(self, src, dst)

        # analyze routes in batches; count pairs through either entry
        monkeypatch.setattr(TorusTopology, "route", counting_route)
        monkeypatch.setattr(TorusTopology, "routes", counting_routes)
        b = FlowBuilder(8)
        for _ in range(10):
            b.add_flow(0, 5, 2.0)   # same pair, ten flows
        b.add_flow(1, 6, 3.0)
        analyze(topo, b.build())
        assert sorted(set(calls)) == sorted(calls)  # no pair routed twice
        assert set(calls) == {(0, 5), (1, 6)}

    def test_dedupe_preserves_loads(self):
        topo = TorusTopology((4, 2))
        b = FlowBuilder(8)
        rng = np.random.default_rng(11)
        for _ in range(40):
            s, d = int(rng.integers(8)), int(rng.integers(8))
            b.add_flow(s, d, float(rng.uniform(1, 5)))
        flows = b.build()
        merged = analyze(topo, flows)
        # one flow at a time cannot benefit from deduplication
        loads = np.zeros_like(merged.loads)
        for i in range(flows.num_flows):
            one = FlowBuilder(8)
            one.add_flow(int(flows.src[i]), int(flows.dst[i]),
                         float(flows.size[i]))
            loads += analyze(topo, one.build()).loads
        np.testing.assert_allclose(merged.loads, loads, rtol=1e-12)

    def test_shares_simulator_route_cache(self, monkeypatch):
        topo = TorusTopology((4, 2))
        b = FlowBuilder(8)
        b.add_flow(0, 5, 2.0)
        b.add_flow(1, 6, 3.0)
        flows = b.build()
        cache: dict = {}
        simulate(topo, flows, route_cache=cache)
        assert (0, 5) in cache and (1, 6) in cache

        def exploding_route(self, s, d):  # cache must fully cover analyze
            raise AssertionError(f"re-routed cached pair ({s}, {d})")

        def exploding_routes(self, src, dst):
            raise AssertionError(f"re-routed cached pairs {src}, {dst}")

        monkeypatch.setattr(TorusTopology, "route", exploding_route)
        monkeypatch.setattr(TorusTopology, "routes", exploding_routes)
        report = analyze(topo, flows, route_cache=cache)
        assert report.loads.sum() > 0
