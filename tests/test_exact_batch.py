"""Equivalence regressions for the exact-fidelity batched completion path.

An exact-mode completion batch that releases no flow only retires flows,
and the allocator resumes the recorded water-level fill above the
removals' threshold instead of paying a full progressive-filling pass per
event (:meth:`repro.engine.active.ActiveSet._relevel_fill`); a batch that
releases flows takes the full pass.

The path is specified as *bitwise-exact*: every rate, makespan and
completion time must match what the full pass — and therefore the loop
oracle (:func:`tests.oracle.simulate_rebuild`) — produces.  This suite
pins that claim across workloads, topology families, healthy and
fault-timeline runs, with the relevel path on and off
(:attr:`ActiveSet.RELEVEL`), and with a Hypothesis property over random
removal bursts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import simulate
from repro.engine.active import ActiveSet
from repro.topology import FaultTimeline
from repro.workloads import build as build_workload
from tests.oracle import assert_results_identical, simulate_rebuild

_WORKLOADS = ("allreduce", "permutation", "unstructuredhr")
_FAMILIES = ("small_torus", "small_fattree", "small_ghc", "small_nesttree",
             "small_nestghc")


def _run_matrix(monkeypatch, scenario):
    """Run ``scenario`` with the relevel path on and off; assert identical.

    Returns the default (relevel on) result.
    """
    results = []
    for relevel in (True, False):
        monkeypatch.setattr(ActiveSet, "RELEVEL", relevel)
        results.append((f"relevel={relevel}", scenario()))
    (base_label, base), (label, other) = results
    assert_results_identical(base, other, base_label, label)
    return base


class TestExactBatchEquivalence:
    """3 workloads x 5 families, healthy: relevel on == off, bitwise."""

    @pytest.mark.parametrize("family", _FAMILIES)
    @pytest.mark.parametrize("workload", _WORKLOADS)
    def test_healthy(self, monkeypatch, request, family, workload):
        topo = request.getfixturevalue(family)
        flows = build_workload(workload, topo.num_endpoints, seed=0).build()
        result = _run_matrix(
            monkeypatch,
            lambda: simulate(topo, flows, fidelity="exact"))
        assert np.isfinite(result.completion_times).all()

    @pytest.mark.parametrize("workload", _WORKLOADS)
    def test_rebuild_baseline(self, small_nesttree, workload):
        """The relevel engine still matches the loop oracle."""
        flows = build_workload(workload, small_nesttree.num_endpoints,
                               seed=0).build()
        inc = simulate(small_nesttree, flows, fidelity="exact")
        reb = simulate_rebuild(small_nesttree, flows, fidelity="exact")
        assert_results_identical(inc, reb, "incremental", "rebuild")

    def test_relevel_fires_on_independent_flows(self, small_nesttree):
        """Pure-removal churn resumes the recorded fill instead of running
        a full pass."""
        flows = build_workload("unstructuredhr",
                               small_nesttree.num_endpoints, seed=1).build()
        result = simulate(small_nesttree, flows, fidelity="exact")
        stats = result.allocator_stats
        assert stats["relevel_fills"] > 0
        assert stats["relevel_fills"] + stats["warm_fills"] \
            > stats["full_passes"]

    def test_knob_disables_relevel(self, monkeypatch, small_nesttree):
        flows = build_workload("unstructuredhr",
                               small_nesttree.num_endpoints, seed=1).build()
        monkeypatch.setattr(ActiveSet, "RELEVEL", False)
        result = simulate(small_nesttree, flows, fidelity="exact")
        assert result.allocator_stats["relevel_fills"] == 0
        assert result.allocator_stats["full_passes"] == result.reallocations


def _transient(rerouted, bits):
    return {"fault_events": 8, "flows_rerouted": rerouted,
            "flows_parked": 0, "flows_recovered": 0,
            "rerouted_bits": bits, "recovery_seconds": 0.0}


class TestTransientExactBatch:
    """Fault boundaries take the same path: relevel on == off, bitwise,
    and both equal the makespan (``float.hex``), event, reallocation and
    recovery counts the separate transient event loop produced before it
    was folded into ``simulate``."""

    PINNED = {
        "allreduce": ("0x1.4ae3503291de8p-8", 47, 47,
                      _transient(2, 4739599.34995815)),
        "permutation": ("0x1.26bc736b8eb55p-10", 23, 23,
                        _transient(10, 17330343.68454069)),
        "unstructuredhr": ("0x1.cc6ba580ddaa0p-7", 67, 67,
                           _transient(28, 41487595.36244224)),
    }

    @pytest.mark.parametrize("workload", _WORKLOADS)
    def test_transient_matrix(self, monkeypatch, small_nesttree, workload):
        flows = build_workload(workload, small_nesttree.num_endpoints,
                               seed=0).build()
        base = simulate(small_nesttree, flows)
        tl = FaultTimeline.sample(small_nesttree, cables=4, seed=3,
                                  horizon=base.makespan * 0.8,
                                  mttr=base.makespan * 0.25)
        result = _run_matrix(
            monkeypatch,
            lambda: simulate(small_nesttree, flows, fidelity="exact",
                             fault_timeline=tl))
        makespan, events, reallocations, transient = self.PINNED[workload]
        assert result.makespan.hex() == makespan
        assert result.events == events
        assert result.reallocations == reallocations
        assert result.transient == transient


class TestRelevelProperty:
    """Hypothesis: removal bursts — the suffix-resume relevel's
    territory — stay bitwise on the full pass.

    Each script batch-adds flows from an interned route pool, then runs
    rounds of removal bursts, some followed by re-adds of removed routes.
    A burst with no re-add is the state the relevel path claims to resume
    bitwise; one with re-adds takes the full pass.  A twin ActiveSet with
    the path disabled provides the full-pass oracle at every allocation.
    """

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           n_flows=st.integers(12, 48),
           rounds=st.integers(3, 10),
           family=st.integers(0, len(_FAMILIES) - 1))
    def test_near_identical_churn_bitwise(self, all_small_topologies, seed,
                                          n_flows, rounds, family):
        topo = all_small_topologies[family]
        caps = topo.links.capacities
        rng = np.random.default_rng(seed)
        n = topo.num_endpoints

        route_pool: dict = {}

        def draw_route():
            s = int(rng.integers(n))
            d = int(rng.integers(n))
            while d == s:
                d = int(rng.integers(n))
            route = route_pool.get((s, d))
            if route is None:
                route = np.asarray(topo.route(s, d), dtype=np.int64)
                route_pool[(s, d)] = route
            return route

        # one churn script: seed adds, then removal bursts, some with
        # re-adds of the removed routes
        script: list[tuple] = [("add", fid, draw_route())
                               for fid in range(n_flows)]
        alive = {fid: route for _, fid, route in script}
        next_fid = n_flows
        script.append(("allocate",))
        for _ in range(rounds):
            burst = min(len(alive) - 1, int(rng.integers(1, 5)))
            if burst <= 0:
                break
            removed: list = []
            for fid in rng.choice(sorted(alive), size=burst,
                                  replace=False).tolist():
                script.append(("remove", int(fid)))
                removed.append(alive.pop(int(fid)))
            for route in removed:
                if rng.random() < 0.4:   # re-admission
                    script.append(("add", next_fid, route))
                    alive[next_fid] = route
                    next_fid += 1
            script.append(("allocate",))

        def replay(enabled: bool) -> list[np.ndarray]:
            active = ActiveSet(caps)
            active.RELEVEL = enabled
            log: list[np.ndarray] = []
            for op in script:
                if op[0] == "add":
                    active.add(op[1], op[2])
                elif op[0] == "remove":
                    active.remove(op[1])
                elif active.size:
                    rates = active.allocate()
                    # slot order depends only on the script, so rates
                    # line up positionally between the twin replays
                    log.append(np.column_stack(
                        (active.flow_ids, rates)).copy())
            return log

        fast = replay(True)
        slow = replay(False)
        assert len(fast) == len(slow)
        for i, (a, b) in enumerate(zip(fast, slow)):
            np.testing.assert_array_equal(
                a, b, err_msg=f"relevel diverges from full pass at "
                              f"allocation {i}")

    def test_property_exercises_relevel(self, small_nesttree):
        """Meta-check: the property's churn shape actually takes the
        suffix-resume path (guards against a vacuous suite)."""
        flows = build_workload("unstructuredhr",
                               small_nesttree.num_endpoints, seed=1).build()
        result = simulate(small_nesttree, flows, fidelity="exact")
        assert result.allocator_stats["relevel_fills"] > 0


class TestRelevelUnit:
    """Direct ActiveSet-level behaviour of the suffix-resume path."""

    def _filled_set(self, topo, n_flows=24, seed=0):
        caps = topo.links.capacities
        rng = np.random.default_rng(seed)
        n = topo.num_endpoints
        active = ActiveSet(caps)
        cache: dict = {}
        for fid in range(n_flows):
            s = int(rng.integers(n))
            d = int(rng.integers(n))
            while d == s:
                d = int(rng.integers(n))
            route = cache.get((s, d))
            if route is None:
                route = np.asarray(topo.route(s, d), dtype=np.int64)
                cache[(s, d)] = route
            active.add(fid, route)
        active.allocate()
        return active

    @staticmethod
    def _eligible_fid(active) -> int:
        """A flow whose lone removal passes every relevel guard.

        White-box mirror of :meth:`ActiveSet._relevel_fill`'s gating: the
        flow's bottleneck must sit above the first recorded water level
        (``k > 0``) and the prefix replay must be cheaper than a full
        pass.  Suffix-resume is *worth* taking only for such flows, so
        the unit tests target one directly.  The harness is seeded, so
        finding none is a failure, not a skip.
        """
        m = active._m
        seq = active._level_seq

        def route_at(slot):
            start = int(active._starts[slot])
            return active._entries[start:start + int(active._lens[slot])]

        for slot in range(m):
            route = route_at(slot)
            tmin = float(active._levels[route].min())
            k = int(np.searchsorted(seq, tmin, side="left"))
            if k == 0:
                continue
            parts = np.flatnonzero(active._rates[:m] >= tmin)
            plinks = np.concatenate(
                [route_at(s) for s in parts if s != slot] + [route])
            suffix = np.unique(np.concatenate((plinks, route)))
            cost = int(active._csr_len[suffix].sum()) + k * suffix.shape[0]
            if cost <= active._live_nnz:
                return int(active._flow_ids[slot])
        pytest.fail("harness produced no relevel-eligible flow")

    def test_net_removal_relevels_bitwise(self, small_nesttree):
        active = self._filled_set(small_nesttree)
        cold = self._filled_set(small_nesttree)
        cold.RELEVEL = False
        fid = self._eligible_fid(active)
        active.remove(fid)
        cold.remove(fid)
        got = active.allocate().copy()
        want = cold.allocate().copy()
        # compare per flow id: slot compaction orders the two sets apart
        ga = dict(zip(active.flow_ids.tolist(), got.tolist()))
        gw = dict(zip(cold.flow_ids.tolist(), want.tolist()))
        assert ga == gw
        assert active.relevel_fills == 1 and cold.relevel_fills == 0

    def test_net_addition_falls_back(self, small_nesttree):
        active = self._filled_set(small_nesttree)
        route = np.asarray(small_nesttree.route(0, 5), dtype=np.int64)
        active.remove(2)
        active.add(100, route)  # any admission takes the full pass
        active.allocate()
        assert active.relevel_fills == 0
        assert active.full_passes == 2

    def test_matched_plus_removed_relevels(self, small_nesttree):
        """A removal plus a swap onto an identical route admits a flow,
        so it takes the full pass, whose rates equal the relevel-off
        twin's."""
        active = self._filled_set(small_nesttree)
        cold = self._filled_set(small_nesttree)
        cold.RELEVEL = False
        fid = self._eligible_fid(active)
        swap = 5 if fid != 5 else 6
        slot = int(active._slot_arr[swap])
        start = int(active._starts[slot])
        route = active._entries[start:start + int(active._lens[slot])].copy()
        rates = []
        for twin in (active, cold):
            twin.remove(fid)
            twin.remove(swap)
            twin.add(200, route)
            got = twin.allocate()
            rates.append(dict(zip(twin.flow_ids.tolist(), got.tolist())))
        assert active.relevel_fills == 0 and active.full_passes == 2
        assert rates[0] == rates[1]
        assert rates[0][200] > 0.0 and np.isfinite(rates[0][200])

    def test_weighted_never_relevels(self, small_fattree):
        caps = small_fattree.links.capacities
        active = ActiveSet(caps, weighted=True)
        route = np.asarray(small_fattree.route(0, 9), dtype=np.int64)
        other = np.asarray(small_fattree.route(1, 8), dtype=np.int64)
        for fid, r in ((0, route), (1, other), (2, route)):
            active.add(fid, r, weight=1.5)
        active.allocate()
        active.remove(2)
        active.allocate()
        assert active.relevel_fills == 0 and active.full_passes == 2
