"""Tests for the routing-policy layer and its engine integration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import simulate
from repro.engine.flows import FlowBuilder
from repro.errors import ConfigError
from repro.routing import ROUTING_POLICIES, validate_policy
from repro.routing.policy import (adaptive_block_index, ecmp_index,
                                  ecmp_indices)
from repro.topology import FaultSet, DegradedTopology, TorusTopology, build
from repro.units import DEFAULT_LINK_CAPACITY as CAP
from repro.workloads import build as build_workload
from tests.oracle import adaptive_index, simulate_rebuild

FAMILY_SIZES = {"torus": 64, "fattree": 64, "thintree": 64, "ghc": 64,
                "nesttree": 64, "nestghc": 64, "dragonfly": 72,
                "jellyfish": 64}
FAMILY_PARAMS = {"nesttree": {"t": 2, "u": 2}, "nestghc": {"t": 2, "u": 2}}


class TestValidatePolicy:
    def test_known_policies_pass_through(self):
        for policy in ROUTING_POLICIES:
            assert validate_policy(policy) == policy

    def test_unknown_policy_is_a_typed_error(self):
        with pytest.raises(ConfigError, match="routing policy"):
            validate_policy("spray")

    def test_simulate_rejects_unknown_policy(self):
        topo = TorusTopology((4,))
        b = FlowBuilder(4)
        b.add_flow(0, 1, CAP)
        with pytest.raises(ConfigError, match="routing policy"):
            simulate(topo, b.build(), routing="spray")


class TestEcmpIndex:
    def test_single_candidate_is_always_zero(self):
        assert ecmp_index(123, 0, 5, 1) == 0
        assert ecmp_index(123, 0, 5, 0) == 0

    def test_stable_per_flow(self):
        assert ecmp_index(7, 3, 9, 4) == ecmp_index(7, 3, 9, 4)

    def test_in_range(self):
        for fid in range(200):
            assert 0 <= ecmp_index(fid, 1, 2, 5) < 5

    def test_spreads_over_all_candidates(self):
        hits = {ecmp_index(fid, 0, 2, 4) for fid in range(256)}
        assert hits == {0, 1, 2, 3}

    def test_pair_changes_the_spread(self):
        a = [ecmp_index(fid, 0, 2, 4) for fid in range(64)]
        b = [ecmp_index(fid, 1, 3, 4) for fid in range(64)]
        assert a != b


def _choose(cands, occ):
    """The block rule's choice, which must be the reference's."""
    indptr = np.cumsum([0, *map(len, cands)])
    pick = adaptive_block_index(indptr, np.concatenate(cands), occ)
    assert pick == adaptive_index(cands, occ)
    return pick


class TestAdaptiveIndex:
    def test_idle_network_takes_the_deterministic_route(self):
        occ = np.zeros(10, dtype=np.int64)
        cands = [np.array([0, 1]), np.array([2, 3])]
        assert _choose(cands, occ) == 0

    def test_congestion_moves_the_choice(self):
        occ = np.zeros(10, dtype=np.int64)
        occ[1] = 5
        cands = [np.array([0, 1]), np.array([2, 3])]
        assert _choose(cands, occ) == 1

    def test_tie_breaks_to_the_first_minimum(self):
        occ = np.array([2, 2, 2, 2], dtype=np.int64)
        cands = [np.array([0, 1]), np.array([2, 3])]
        assert _choose(cands, occ) == 0

    def test_worst_link_governs(self):
        # candidate 0: links busy 1,1 (max 1); candidate 1: 0,3 (max 3)
        occ = np.array([1, 1, 0, 3], dtype=np.int64)
        cands = [np.array([0, 1]), np.array([2, 3])]
        assert _choose(cands, occ) == 0


class TestArrayForms:
    """The engine's array forms give the scalar rules' answers."""

    @given(st.lists(st.tuples(
        st.one_of(st.integers(0, 2 ** 20), st.integers(2 ** 40, 2 ** 63 - 1)),
        st.integers(0, 131_071), st.integers(0, 131_071),
        st.one_of(st.sampled_from((1, 2, 63, 64)), st.integers(1, 64))),
        min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_ecmp_indices_equal_the_scalar(self, flows):
        fid, src, dst, n = (np.asarray(col, dtype=np.int64)
                            for col in zip(*flows))
        assert ecmp_indices(fid, src, dst, n).tolist() == [
            ecmp_index(*flow) for flow in flows]

    def test_ecmp_indices_at_the_edges(self):
        """Flow ids past 2**40 and endpoints past 2**17, where the mixed
        word overflows 64 bits, for each candidate count of interest."""
        fid = np.array([0, 1, 2 ** 40, 2 ** 40 + 7, 2 ** 62, 2 ** 63 - 1])
        for src, dst in ((0, 1), (131_071, 131_070), (65_536, 131_071)):
            for n in (1, 2, 63, 64):
                got = ecmp_indices(fid, np.full(6, src), np.full(6, dst),
                                   np.full(6, n))
                assert got.tolist() == [ecmp_index(int(f), src, dst, n)
                                        for f in fid]
                assert got.dtype == np.int64

    @given(st.lists(st.lists(st.integers(0, 15), min_size=1, max_size=6),
                    min_size=1, max_size=10),
           st.lists(st.integers(0, 5), min_size=16, max_size=16))
    @settings(max_examples=300, deadline=None)
    def test_adaptive_block_equals_the_scalar(self, routes, occupancy):
        occ = np.asarray(occupancy, dtype=np.int64)
        cands = [np.asarray(r, dtype=np.int64) for r in routes]
        indptr = np.cumsum([0, *map(len, routes)])
        links = np.concatenate(cands)
        assert adaptive_block_index(indptr, links, occ) == \
            adaptive_index(cands, occ)


class TestWrapTieSpreading:
    """The dor even-radix tie fix: ecmp actually uses both directions."""

    def topo(self):
        return TorusTopology((4,))  # ring 0-1-2-3; 0 -> 2 ties

    def tie_flows(self, n=16):
        # two tied pairs whose deterministic routes share link 1 -> 2; the
        # wrap-direction candidates are completely disjoint from them
        b = FlowBuilder(4)
        for _ in range(n):
            b.add_flow(0, 2, CAP)
            b.add_flow(1, 3, CAP)
        return b.build()

    def interior_bits(self, topo, routing):
        from repro.obs import MetricsCollector

        collector = MetricsCollector(topo.links.num_links)
        simulate(topo, self.tie_flows(), routing=routing, metrics=collector)
        forward = topo.links.id_of(0, 1)   # 0 -> 1 -> 2
        wrap = topo.links.id_of(0, 3)      # 0 -> 3 -> 2
        return collector.link_bits[forward], collector.link_bits[wrap]

    def test_ecmp_index_covers_both_directions(self):
        cands = self.topo().route_candidates(0, 2)
        assert len(cands) == 2
        assert {ecmp_index(fid, 0, 2, len(cands))
                for fid in range(64)} == {0, 1}

    def test_deterministic_leaves_the_wrap_direction_idle(self):
        forward, wrap = self.interior_bits(self.topo(), "deterministic")
        assert forward > 0
        assert wrap == 0

    def test_ecmp_loads_both_directions(self):
        forward, wrap = self.interior_bits(self.topo(), "ecmp")
        assert forward > 0
        assert wrap > 0

    def test_adaptive_loads_both_directions(self):
        forward, wrap = self.interior_bits(self.topo(), "adaptive")
        assert forward > 0
        assert wrap > 0

    def test_spreading_relieves_the_shared_bottleneck(self):
        # deterministic: 32 flows pile onto link 1 -> 2 (32 s); adaptive
        # alternates directions per pair until the injection NICs bind
        # (16 flows each -> 16 s); ecmp's hash spread lands in between
        det = simulate(self.topo(), self.tie_flows(), routing="deterministic")
        ecmp = simulate(self.topo(), self.tie_flows(), routing="ecmp")
        adaptive = simulate(self.topo(), self.tie_flows(), routing="adaptive")
        assert det.makespan == pytest.approx(32.0)
        assert ecmp.makespan < det.makespan
        assert adaptive.makespan == pytest.approx(16.0)


class TestDeterministicIdentity:
    """``routing="deterministic"`` is bitwise the pre-policy engine."""

    @pytest.mark.parametrize("family", sorted(FAMILY_SIZES))
    def test_every_family_is_unchanged(self, family):
        topo = build(family, FAMILY_SIZES[family],
                     **FAMILY_PARAMS.get(family, {}))
        flows = build_workload("unstructuredhr", topo.num_endpoints,
                               seed=0).build()
        base = simulate(topo, flows, fidelity="approx")
        det = simulate(topo, flows, fidelity="approx",
                       routing="deterministic")
        assert det.makespan == base.makespan
        assert det.events == base.events
        assert det.reallocations == base.reallocations

    def test_healthy_deterministic_keeps_bare_cache_keys(self):
        # pre-policy sweeps shared {(src, dst): route} caches; the healthy
        # deterministic path must keep that exact key shape
        topo = TorusTopology((4,))
        b = FlowBuilder(4)
        b.add_flow(0, 3, CAP)
        cache: dict = {}
        simulate(topo, b.build(), route_cache=cache)
        assert all(isinstance(k, tuple) and len(k) == 2
                   and all(isinstance(x, int) for x in k) for k in cache)

    def test_single_flow_identical_under_every_policy(self):
        # an idle network always selects candidate 0 — the deterministic
        # route — so equal-load selections agree across all policies
        topo = build("nesttree", 64, t=2, u=2)
        b = FlowBuilder(64)
        b.add_flow(3, 60, CAP)
        results = {p: simulate(topo, b.build(), routing=p)
                   for p in ROUTING_POLICIES}
        assert results["ecmp"].makespan == results["deterministic"].makespan
        assert results["adaptive"].makespan == \
            results["deterministic"].makespan


class TestSharedCacheIsolation:
    """The consolidated route cache fill: no cross-policy/fault poisoning."""

    def topo(self):
        return build("nesttree", 64, t=2, u=4)

    def flows(self):
        return build_workload("unstructuredhr", 64, seed=3).build()

    def test_policies_do_not_poison_each_other(self):
        cache: dict = {}
        flows = self.flows()
        topo = self.topo()
        fresh_det = simulate(topo, flows, fidelity="approx")
        simulate(topo, flows, fidelity="approx", routing="ecmp",
                 route_cache=cache)
        simulate(topo, flows, fidelity="approx", routing="adaptive",
                 route_cache=cache)
        shared_det = simulate(topo, flows, fidelity="approx",
                              route_cache=cache)
        assert shared_det.makespan == fresh_det.makespan
        assert shared_det.events == fresh_det.events

    def test_degraded_views_do_not_poison_the_healthy_cache(self):
        cache: dict = {}
        flows = self.flows()
        topo = self.topo()
        degraded = DegradedTopology(
            topo, FaultSet.sample(topo, cables=6, seed=5))
        fresh_healthy = simulate(topo, flows, fidelity="approx")
        fresh_degraded = simulate(degraded, flows, fidelity="approx")
        # interleave healthy and degraded runs through one shared cache
        shared_degraded = simulate(degraded, flows, fidelity="approx",
                                   route_cache=cache)
        shared_healthy = simulate(topo, flows, fidelity="approx",
                                  route_cache=cache)
        assert shared_healthy.makespan == fresh_healthy.makespan
        assert shared_degraded.makespan == fresh_degraded.makespan

    def test_distinct_fault_sets_get_distinct_cache_entries(self):
        topo = self.topo()
        flows = self.flows()
        cache: dict = {}
        a = DegradedTopology(topo, FaultSet.sample(topo, cables=6, seed=1))
        b = DegradedTopology(topo, FaultSet.sample(topo, cables=6, seed=2))
        fresh_a = simulate(a, flows, fidelity="approx")
        fresh_b = simulate(b, flows, fidelity="approx")
        assert simulate(a, flows, fidelity="approx",
                        route_cache=cache).makespan == fresh_a.makespan
        assert simulate(b, flows, fidelity="approx",
                        route_cache=cache).makespan == fresh_b.makespan


class TestPolicyReproducibility:
    @pytest.mark.parametrize("routing", ROUTING_POLICIES)
    @pytest.mark.parametrize("run", (simulate, simulate_rebuild),
                             ids=("incremental", "rebuild"))
    def test_repeat_runs_are_identical(self, routing, run):
        topo = build("nesttree", 64, t=2, u=4)
        flows = build_workload("unstructuredhr", 64, seed=0).build()
        a = run(topo, flows, fidelity="approx", routing=routing)
        b = run(topo, flows, fidelity="approx", routing=routing)
        assert a.makespan == b.makespan
        assert a.events == b.events

    def test_ecmp_agrees_across_allocators(self):
        # ecmp selection is oblivious, so the engine and the loop oracle
        # route identically
        topo = build("nesttree", 64, t=2, u=4)
        flows = build_workload("unstructuredhr", 64, seed=0).build()
        inc = simulate(topo, flows, fidelity="approx", routing="ecmp")
        reb = simulate_rebuild(topo, flows, fidelity="approx",
                               routing="ecmp")
        assert inc.makespan == pytest.approx(reb.makespan, rel=1e-9)


class TestRoutingThreading:
    """The policy knob reaches keys, labels, records and snapshots."""

    def test_sweep_key_is_unchanged_for_the_default(self):
        from repro.core.config import TopologySpec, WorkloadSpec
        from repro.sweep import SweepCell

        cell = SweepCell(workload=WorkloadSpec("allreduce"),
                         topology=TopologySpec("fattree", {}))
        assert "routing" not in cell.key()
        ecmp = SweepCell(workload=WorkloadSpec("allreduce"),
                         topology=TopologySpec("fattree", {}),
                         routing="ecmp")
        assert ecmp.key().endswith("|routing(ecmp)")
        assert ecmp.key() != cell.key()

    def test_candidate_label_carries_the_policy(self):
        from repro.search.space import Candidate

        assert Candidate("nesttree", 2, 4).label() == "nesttree(2,4)"
        assert Candidate("nesttree", 2, 4, routing="adaptive").label() == \
            "nesttree(2,4)~adaptive"

    def test_metrics_snapshot_records_the_policy(self):
        from repro.obs import MetricsCollector, validate_snapshot

        topo = TorusTopology((4,))
        b = FlowBuilder(4)
        b.add_flow(0, 2, CAP)
        collector = MetricsCollector(topo.links.num_links)
        result = simulate(topo, b.build(), routing="ecmp", metrics=collector)
        validate_snapshot(result.metrics)
        assert result.metrics["routing"] == "ecmp"

    def test_design_space_routings_axis(self):
        from repro.search.space import DesignSpace

        space = DesignSpace(endpoints=64,
                            routings=("deterministic", "ecmp", "adaptive"))
        cands = space.enumerate()
        assert space.size() == len(cands)
        assert {c.routing for c in cands} == set(ROUTING_POLICIES)
        with pytest.raises(ConfigError):
            DesignSpace(endpoints=64, routings=("spray",))
