"""Tests for the degraded-network simulation layer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import analyze, simulate
from repro.errors import DegradedNetworkError, TopologyError
from repro.routing import ROUTING_POLICIES
from repro.routing.policy import ecmp_index
from repro.topology import (DegradedTopology, FaultSet, NestTree,
                            TorusTopology, available, build, degrade,
                            validate_fault_ids)
from repro.workloads import build as build_workload
from tests.oracle import adaptive_index

#: One buildable instance per registered topology family.
FAMILY_SIZES = {"torus": 64, "fattree": 64, "thintree": 64, "ghc": 64,
                "nesttree": 64, "nestghc": 64, "dragonfly": 72,
                "jellyfish": 64}
FAMILY_PARAMS = {"nesttree": {"t": 2, "u": 2}, "nestghc": {"t": 2, "u": 2}}

_built: dict[str, object] = {}
_fault_sets: dict[tuple, FaultSet] = {}


def built(family):
    if family not in _built:
        _built[family] = build(family, FAMILY_SIZES[family],
                               **FAMILY_PARAMS.get(family, {}))
    return _built[family]


def fault_set(family, cables, seed, uplinks=0):
    key = (family, cables, seed, uplinks)
    if key not in _fault_sets:
        _fault_sets[key] = FaultSet.sample(built(family), cables=cables,
                                           uplinks=uplinks, seed=seed)
    return _fault_sets[key]


def test_every_family_is_covered():
    assert set(FAMILY_SIZES) == set(available())


class TestFaultSet:
    def test_sampling_is_reproducible(self):
        topo = built("nesttree")
        a = FaultSet.sample(topo, cables=4, uplinks=2, seed=7)
        b = FaultSet.sample(topo, cables=4, uplinks=2, seed=7)
        assert a.failed_links == b.failed_links
        assert a.failed_uplinks == b.failed_uplinks
        assert a.fingerprint() == {"cables": 4, "uplinks": 2, "seed": 7}

    def test_cables_fail_both_directions(self):
        topo = built("torus")
        fs = FaultSet.sample(topo, cables=5, seed=1)
        for lid in fs.failed_links:
            u, v = topo.links.endpoints_of(lid)
            assert topo.links.id_of(v, u) in fs.failed_links

    def test_uplink_faults_require_a_hybrid(self):
        with pytest.raises(TopologyError, match="hybrid"):
            FaultSet.sample(built("torus"), uplinks=1)

    def test_uplink_faults_pick_uplinked_endpoints(self):
        topo = built("nesttree")
        fs = FaultSet.sample(topo, uplinks=3, seed=2)
        assert len(fs.failed_uplinks) == 3
        for e in fs.failed_uplinks:
            _, local = divmod(e, topo.plan.nodes)
            assert local in topo.plan.uplink_rank

    def test_negative_counts_rejected(self):
        with pytest.raises(TopologyError, match="non-negative"):
            FaultSet.sample(built("torus"), cables=-1)

    def test_explicit_set_fingerprints_by_ids(self):
        topo = built("torus")
        u, v = topo.links.endpoints_of(0)
        fs = FaultSet(frozenset({0, topo.links.id_of(v, u)}))
        fp = fs.fingerprint()
        assert sorted(fp["links"]) == fp["links"]
        assert "cables" not in fp


class TestWrapperConstruction:
    def test_degrade_identity_when_healthy(self):
        topo = built("torus")
        assert degrade(topo) is topo

    def test_shares_link_table_and_nic_links(self):
        topo = built("fattree")
        deg = degrade(topo, cables=2, seed=0)
        assert deg.links is topo.links
        assert np.array_equal(deg.injection_links, topo.injection_links)
        assert np.array_equal(deg.consumption_links, topo.consumption_links)

    def test_rejects_nic_link_faults(self):
        topo = built("torus")
        nic = int(topo.injection_links[0])
        with pytest.raises(TopologyError, match="NIC"):
            DegradedTopology(topo, FaultSet(frozenset({nic})))

    def test_rejects_half_cables(self):
        topo = built("torus")
        with pytest.raises(TopologyError, match="reverse"):
            DegradedTopology(topo, FaultSet(frozenset({0})))

    def test_rejects_stacked_wrappers(self):
        deg = degrade(built("torus"), cables=1, seed=0)
        with pytest.raises(TopologyError, match="already-degraded"):
            DegradedTopology(deg, FaultSet())

    def test_delegates_hybrid_helpers(self):
        topo = built("nesttree")
        deg = degrade(topo, cables=1, seed=0)
        assert deg.subtorus_of(9) == topo.subtorus_of(9)
        assert deg.plan is topo.plan
        assert "degraded" in deg.describe()


class TestFaultIdValidation:
    """Fault ids are range-checked against the topology at wrap time.

    A fault set sampled on one topology used to apply silently to another
    (out-of-range ids simply never matched a route); now the mismatch is a
    typed error naming the offending ids.
    """

    def test_unknown_link_ids_are_named(self):
        topo = built("torus")
        n = topo.links.num_links
        with pytest.raises(TopologyError) as exc:
            DegradedTopology(topo, FaultSet(frozenset({n + 5, n + 6})))
        assert str(n + 5) in str(exc.value)
        assert str(n + 6) in str(exc.value)
        assert "different topology" in str(exc.value)

    def test_fault_set_from_bigger_topology_rejected(self):
        big = build("torus", 512)
        small = built("torus")
        fs = FaultSet.sample(big, cables=4, seed=0)
        # at least one sampled id must exceed the small machine's table
        # for this regression to bite; seed 0 at 512 endpoints does
        assert max(fs.failed_links) >= small.links.num_links
        with pytest.raises(TopologyError, match="unknown link id"):
            DegradedTopology(small, fs)

    def test_unknown_uplink_endpoints_are_named(self):
        topo = built("nesttree")
        bad = topo.num_endpoints + 17
        with pytest.raises(TopologyError) as exc:
            validate_fault_ids(topo, frozenset(), frozenset({bad}))
        assert str(bad) in str(exc.value)
        assert "unknown endpoint" in str(exc.value)

    def test_portless_uplink_endpoints_are_named(self):
        topo = built("nesttree")
        # find an endpoint with no uplink port (u=2 on a 2^3 subtorus
        # leaves local ranks without one)
        portless = next(
            e for e in range(topo.num_endpoints)
            if (e % topo.plan.nodes) not in topo.plan.uplink_rank)
        with pytest.raises(TopologyError, match="no uplink port"):
            validate_fault_ids(topo, frozenset(), frozenset({portless}))

    def test_negative_link_ids_rejected(self):
        topo = built("torus")
        with pytest.raises(TopologyError, match="unknown link id"):
            validate_fault_ids(topo, frozenset({-1}), frozenset())

    def test_valid_ids_pass(self):
        topo = built("nesttree")
        fs = fault_set("nesttree", 3, 0, uplinks=2)
        validate_fault_ids(topo, fs.failed_links, fs.failed_uplinks)

    def test_timeline_validation_names_foreign_ids(self):
        from repro.topology import FaultTimeline

        big = build("torus", 512)
        small = built("torus")
        tl = FaultTimeline.sample(big, cables=4, seed=0, horizon=1.0)
        with pytest.raises(TopologyError, match="unknown link id"):
            tl.validate(small)


class TestCandidateFaultInteraction:
    """Property: ``route_candidates`` on a degraded view never yields a
    route crossing a failed link or a dead uplink port — across all 8
    families and all three routing policies (the candidate-set API and
    the fault model were built in different PRs; this pins their
    composition)."""

    @settings(max_examples=150, deadline=None)
    @given(family=st.sampled_from(sorted(FAMILY_SIZES)),
           seed=st.integers(0, 5), cables=st.integers(1, 5),
           uplinks=st.integers(0, 3), draw=st.integers(0, 10_000),
           policy=st.sampled_from(ROUTING_POLICIES))
    def test_candidates_avoid_failed_components(self, family, seed, cables,
                                                uplinks, draw, policy):
        topo = built(family)
        if not hasattr(topo, "plan"):
            uplinks = 0  # uplink-port faults are a hybrid concept
        deg = DegradedTopology(topo,
                               fault_set(family, cables, seed, uplinks))
        disabled = deg.disabled_link_mask()
        n = topo.num_endpoints
        src = draw % n
        dst = (draw // n) % n
        if src == dst:
            dst = (dst + 1) % n
        try:
            cands = deg.route_candidates(src, dst)
        except DegradedNetworkError as exc:
            assert (src, dst) in exc.pairs
            return
        assert cands, "route_candidates returned an empty candidate set"
        for route in cands:
            arr = np.asarray(route, dtype=np.int64)
            assert not disabled[arr].any(), (
                f"{family} candidate for {src}->{dst} crosses a failed "
                f"link/dead uplink under {policy}")
            assert arr[0] == int(topo.injection_links[src])
            assert arr[-1] == int(topo.consumption_links[dst])
        # candidate 0 is the deterministic route; the policy selectors
        # must index inside the candidate list
        assert list(cands[0]) == list(deg.route(src, dst))
        if policy == "ecmp":
            assert 0 <= ecmp_index(draw, src, dst, len(cands)) < len(cands)
        elif policy == "adaptive":
            occupancy = np.zeros(topo.links.num_links, dtype=np.int64)
            idx = adaptive_index([np.asarray(r, dtype=np.int64)
                                  for r in cands], occupancy)
            assert 0 <= idx < len(cands)


class TestDegradedRouting:
    """Acceptance: for every family, every routed flow avoids every failed
    link, or the disconnected pair is named — no silent fallthrough."""

    @settings(max_examples=120, deadline=None)
    @given(family=st.sampled_from(sorted(FAMILY_SIZES)),
           seed=st.integers(0, 7), cables=st.integers(1, 5),
           draw=st.integers(0, 10_000))
    def test_route_never_traverses_a_failed_link(self, family, seed,
                                                 cables, draw):
        topo = built(family)
        deg = DegradedTopology(topo, fault_set(family, cables, seed))
        n = topo.num_endpoints
        src = draw % n
        dst = (draw // n) % n
        if src == dst:
            dst = (dst + 1) % n
        try:
            route = deg.route(src, dst)
        except DegradedNetworkError as exc:
            assert (src, dst) in exc.pairs
            return
        assert not set(route) & deg.faults.failed_links
        # NIC links still bracket the path, like any healthy route
        assert route[0] == int(topo.injection_links[src])
        assert route[-1] == int(topo.consumption_links[dst])

    def test_routing_is_deterministic(self):
        a = degrade(built("ghc"), cables=4, seed=3)
        b = degrade(built("ghc"), cables=4, seed=3)
        for src, dst in [(0, 63), (5, 40), (63, 1)]:
            try:
                route_a = a.route(src, dst)
            except DegradedNetworkError:
                with pytest.raises(DegradedNetworkError):
                    b.route(src, dst)
                continue
            assert route_a == b.route(src, dst)

    def test_hybrid_reroutes_around_dead_uplink_port(self):
        topo = NestTree(64, 2, 2)
        src, dst = 1, 63
        dead = topo.designated_uplink(src)
        deg = DegradedTopology(topo, FaultSet(failed_uplinks=frozenset({dead})))
        path = deg.vertex_path(src, dst)
        switch_lo = topo.num_endpoints
        for a, b in zip(path, path[1:]):
            assert not (a == dead and b >= switch_lo)
            assert not (b == dead and a >= switch_lo)
        assert path[0] == src and path[-1] == dst

    def test_disconnected_pair_is_named(self):
        topo = TorusTopology((4, 4))
        nic_base = topo.num_endpoints + topo.num_switches
        cut = frozenset(
            lid for lid in range(topo.links.num_links)
            if 0 in topo.links.endpoints_of(lid)
            and max(topo.links.endpoints_of(lid)) < nic_base)
        deg = DegradedTopology(topo, FaultSet(cut))
        with pytest.raises(DegradedNetworkError) as exc:
            deg.route(0, 5)
        assert (0, 5) in exc.value.pairs
        assert "0->5" in str(exc.value)
        # the rest of the machine still routes
        assert deg.route(1, 5)

    def test_detour_is_minimal_on_the_surviving_graph(self):
        topo = TorusTopology((4, 4))
        # fail one cable on the deterministic route 0 -> 1
        lid = topo.links.id_of(0, 1)
        rev = topo.links.id_of(1, 0)
        deg = DegradedTopology(topo, FaultSet(frozenset({lid, rev})))
        path = deg.vertex_path(0, 1)
        # 0 and 1 share no neighbour in a (4,4) torus, so the shortest
        # surviving walk is exactly 3 hops (e.g. back around the x ring)
        assert len(path) == 4
        assert path[0] == 0 and path[-1] == 1


class TestDegradedSimulation:
    def test_simulation_and_static_loads_avoid_failed_links(self):
        topo = built("nesttree")
        deg = degrade(topo, cables=3, uplinks=1, seed=0)
        flows = build_workload("allreduce", 64).build()
        result = simulate(deg, flows)
        assert result.makespan > 0
        report = analyze(deg, flows)
        for lid in deg.faults.failed_links:
            assert report.loads[lid] == 0.0
        # tier breakdown still recognises the wrapped hybrid
        assert "upper_fabric" in report.tier_loads

    def test_degradation_typically_costs_makespan(self):
        topo = built("torus")
        flows = build_workload("allreduce", 64).build()
        healthy = simulate(topo, flows).makespan
        degraded = simulate(degrade(topo, cables=6, seed=1), flows).makespan
        assert degraded >= healthy


class TestDetourEndpointTransit:
    """The BFS detour must not relay traffic through third-party endpoints.

    Regression for a bug where the detour search treated every vertex as a
    forwarder: on indirect networks (trees, GHC) a detour could enter a
    leaf endpoint and leave again, a walk no real machine could realise.
    Endpoints only forward where the architecture makes them routers —
    everywhere on a switchless torus, and inside the source/destination
    subtorus of a hybrid.
    """

    def forced_detours(self, family, cables, seed):
        """(pair, walk) for every pair whose deterministic route was cut."""
        topo = built(family)
        deg = DegradedTopology(topo, fault_set(family, cables, seed))
        out = []
        for src in range(topo.num_endpoints):
            for dst in range(topo.num_endpoints):
                if src == dst:
                    continue
                base_walk = topo.vertex_path(src, dst)
                try:
                    walk = deg.vertex_path(src, dst)
                except DegradedNetworkError:
                    continue
                if walk != base_walk:
                    out.append(((src, dst), walk))
        return out

    @pytest.mark.parametrize("family", ("fattree", "thintree"))
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_indirect_networks_never_relay_through_endpoints(self, family,
                                                             seed):
        topo = built(family)
        detours = self.forced_detours(family, cables=8, seed=seed)
        assert detours, "fault sample cut no deterministic route"
        for (src, dst), walk in detours:
            interior = walk[1:-1]
            assert all(v >= topo.num_endpoints for v in interior), \
                f"detour {src}->{dst} relays through an endpoint: {walk}"

    def test_ghc_cut_pairs_disconnect_instead_of_relaying(self):
        # a GHC endpoint's dimension port is its only path into that
        # dimension: once the cable dies the pair is genuinely cut.  The
        # buggy detour instead "fixed" it by bouncing through a peer
        # endpoint — a walk no real machine could realise.
        topo = built("ghc")
        deg = DegradedTopology(topo, fault_set("ghc", 8, 0))
        cut = 0
        for src in range(topo.num_endpoints):
            for dst in range(topo.num_endpoints):
                if src == dst:
                    continue
                survives = deg._walk_survives(topo.vertex_path(src, dst))
                if survives:
                    assert deg.vertex_path(src, dst) == \
                        topo.vertex_path(src, dst)
                else:
                    cut += 1
                    with pytest.raises(DegradedNetworkError):
                        deg.vertex_path(src, dst)
        assert cut, "fault sample cut no deterministic route"

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_hybrid_transit_endpoints_stay_in_the_end_subtori(self, seed):
        topo = built("nesttree")
        detours = self.forced_detours("nesttree", cables=8, seed=seed)
        assert detours, "fault sample cut no deterministic route"
        for (src, dst), walk in detours:
            allowed = {topo.subtorus_of(src), topo.subtorus_of(dst)}
            for v in walk[1:-1]:
                if v < topo.num_endpoints:
                    assert topo.subtorus_of(v) in allowed, \
                        f"detour {src}->{dst} relays through a foreign " \
                        f"subtorus endpoint: {walk}"

    def test_torus_endpoints_still_forward(self):
        # switchless direct networks route *through* endpoints by design;
        # the transit restriction must not disconnect them
        topo = built("torus")
        deg = DegradedTopology(topo, fault_set("torus", 6, 3))
        for src in range(0, 64, 5):
            for dst in range(2, 64, 7):
                walk = deg.vertex_path(src, dst)
                assert walk[0] == src and walk[-1] == dst
