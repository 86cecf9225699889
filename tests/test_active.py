"""Tests for the persistent incremental max-min allocator.

The :class:`~repro.engine.active.ActiveSet` must produce the *same* rates
as the reference :func:`repro.engine.maxmin.allocate` on whatever flow set
it currently holds — after any interleaving of admissions and retirements,
on every topology family, with and without weights, through the warm path
and the full pass alike.  These tests drive it through randomized churn
and compare against the reference on the CSR the set itself gathers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import simulate
from repro.engine.active import ActiveSet
from repro.engine.flows import FlowBuilder
from repro.engine.maxmin import allocate
from repro.errors import SimulationError
from repro.units import DEFAULT_LINK_CAPACITY as CAP
from repro.workloads import AllReduce, Permutation, UnstructuredApp
from tests.oracle import simulate_rebuild


def _reference_rates(active: ActiveSet, capacities: np.ndarray,
                     weighted: bool) -> np.ndarray:
    """Reference allocation over the set's current flows (slot order)."""
    entries, ptr = active.gather_csr()
    return allocate(entries, ptr, capacities,
                    active.weights.copy() if weighted else None)


def _random_route(topo, rng, route_cache):
    """An interned route between two distinct random endpoints."""
    n = topo.num_endpoints
    s = int(rng.integers(n))
    d = int(rng.integers(n))
    while d == s:
        d = int(rng.integers(n))
    key = (s, d)
    route = route_cache.get(key)
    if route is None:
        route = np.asarray(topo.route(s, d), dtype=np.int64)
        route_cache[key] = route
    return route


class TestMembership:
    def test_add_remove_roundtrip(self):
        active = ActiveSet(np.ones(4))
        active.add(7, np.array([0, 1], dtype=np.int64), rate=3.5)
        assert active.size == 1
        assert active.flow_ids.tolist() == [7]
        assert active.remove(7) == 3.5
        assert active.size == 0

    def test_swap_with_last_keeps_alignment(self):
        active = ActiveSet(np.ones(4))
        for fid in (10, 11, 12):
            active.add(fid, np.array([fid - 10], dtype=np.int64),
                       rate=float(fid))
        active.remove(10)  # last slot (12) swaps into slot 0
        ids = active.flow_ids.tolist()
        rates = active.rates.tolist()
        assert sorted(ids) == [11, 12]
        assert rates[ids.index(12)] == 12.0
        assert rates[ids.index(11)] == 11.0

    def test_duplicate_add_rejected(self):
        active = ActiveSet(np.ones(2))
        active.add(0, np.array([0], dtype=np.int64))
        with pytest.raises(SimulationError):
            active.add(0, np.array([1], dtype=np.int64))

    def test_empty_route_rejected(self):
        active = ActiveSet(np.ones(2))
        with pytest.raises(SimulationError):
            active.add(0, np.empty(0, dtype=np.int64))

    def test_nonpositive_weight_rejected(self):
        active = ActiveSet(np.ones(2), weighted=True)
        with pytest.raises(SimulationError):
            active.add(0, np.array([0], dtype=np.int64), weight=0.0)

    def test_remove_unknown_rejected(self):
        active = ActiveSet(np.ones(2))
        with pytest.raises(SimulationError):
            active.remove(99)

    def test_set_rates_length_checked(self):
        active = ActiveSet(np.ones(2))
        active.add(0, np.array([0], dtype=np.int64))
        with pytest.raises(SimulationError):
            active.set_rates(np.zeros(3))

    def test_empty_allocation_is_noop(self):
        active = ActiveSet(np.ones(2))
        stats: dict = {}
        assert active.allocate(stats=stats).shape == (0,)
        assert stats == {"iterations": 0, "warm": False}


class TestChurnMatchesReference:
    """Property test: arbitrary add/remove sequences keep rates exact."""

    def test_random_churn_all_topologies(self, all_small_topologies):
        for t_idx, topo in enumerate(all_small_topologies):
            rng = np.random.default_rng(100 + t_idx)
            caps = topo.links.capacities
            active = ActiveSet(caps)
            route_cache: dict = {}
            alive: list[int] = []
            next_fid = 0
            for step in range(150):
                if alive and rng.random() < 0.45:
                    fid = alive.pop(int(rng.integers(len(alive))))
                    active.remove(fid)
                else:
                    active.add(next_fid,
                               _random_route(topo, rng, route_cache))
                    alive.append(next_fid)
                    next_fid += 1
                if active.size and step % 3 == 0:
                    got = active.allocate().copy()
                    want = _reference_rates(active, caps, weighted=False)
                    np.testing.assert_allclose(got, want, rtol=1e-12)
            # the sequence must have taken both code paths at least once
            assert active.full_passes > 0

    def test_random_churn_weighted(self, small_torus):
        rng = np.random.default_rng(17)
        caps = small_torus.links.capacities
        active = ActiveSet(caps, weighted=True)
        route_cache: dict = {}
        alive: list[int] = []
        next_fid = 0
        for step in range(120):
            if alive and rng.random() < 0.45:
                fid = alive.pop(int(rng.integers(len(alive))))
                active.remove(fid)
            else:
                active.add(next_fid,
                           _random_route(small_torus, rng, route_cache),
                           weight=float(rng.uniform(0.5, 4.0)))
                alive.append(next_fid)
                next_fid += 1
            if active.size and step % 3 == 0:
                got = active.allocate().copy()
                want = _reference_rates(active, caps, weighted=True)
                np.testing.assert_allclose(got, want, rtol=1e-9)
        assert active.warm_fills == 0  # weighted sets never warm-fill

    def test_pool_growth_and_compaction(self):
        """Heavy churn through pool exhaustion keeps rates exact."""
        rng = np.random.default_rng(5)
        caps = np.full(16, CAP)
        active = ActiveSet(caps)
        alive: list[int] = []
        next_fid = 0
        for step in range(800):
            if alive and (rng.random() < 0.5 or len(alive) > 120):
                fid = alive.pop(int(rng.integers(len(alive))))
                active.remove(fid)
            else:
                length = int(rng.integers(1, 7))
                route = rng.choice(16, size=length,
                                   replace=False).astype(np.int64)
                active.add(next_fid, route)
                alive.append(next_fid)
                next_fid += 1
            if active.size and step % 25 == 0:
                got = active.allocate().copy()
                want = _reference_rates(active, caps, weighted=False)
                np.testing.assert_allclose(got, want, rtol=1e-12)


class TestChurnProperty:
    """Hypothesis: random churn keeps the allocator on the reference."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           steps=st.integers(20, 120),
           family=st.integers(0, 4),
           weighted=st.booleans())
    def test_random_churn_matches_reference(self, all_small_topologies,
                                            seed, steps, family, weighted):
        topo = all_small_topologies[family]
        caps = topo.links.capacities
        rng = np.random.default_rng(seed)
        route_cache: dict = {}
        active = ActiveSet(caps, weighted=weighted)
        alive: list[int] = []
        next_fid = 0
        for i in range(steps):
            if alive and rng.random() < 0.45:
                active.remove(alive.pop(int(rng.integers(len(alive)))))
            else:
                w = float(rng.uniform(0.5, 4.0)) if weighted else 1.0
                active.add(next_fid, _random_route(topo, rng, route_cache),
                           weight=w)
                alive.append(next_fid)
                next_fid += 1
            if active.size and i % 3 == 0:
                got = active.allocate().copy()
                want = _reference_rates(active, caps, weighted)
                # warm fills may diverge from a cold reference allocation
                # only within float tolerance
                np.testing.assert_allclose(
                    got, want, rtol=1e-12 if not weighted else 1e-9)


class TestWarmPath:
    def test_route_swap_takes_warm_path(self, small_torus):
        caps = small_torus.links.capacities
        r1 = np.asarray(small_torus.route(0, 5), dtype=np.int64)
        r2 = np.asarray(small_torus.route(3, 9), dtype=np.int64)
        active = ActiveSet(caps)
        active.add(0, r1)
        active.add(1, r2)
        active.add(2, r1)
        active.allocate()
        assert active.full_passes == 1

        # retire one flow and replace it with the *same* route object:
        # the multiset of routes is unchanged, so the warm path applies
        active.remove(0)
        active.add(3, r1)
        stats: dict = {}
        got = active.allocate(stats=stats).copy()
        assert stats["warm"] is True and stats["iterations"] == 0
        assert active.warm_fills == 1 and active.full_passes == 1
        want = _reference_rates(active, caps, weighted=False)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_changed_multiset_takes_full_pass(self, small_torus):
        caps = small_torus.links.capacities
        r1 = np.asarray(small_torus.route(0, 5), dtype=np.int64)
        r2 = np.asarray(small_torus.route(3, 9), dtype=np.int64)
        active = ActiveSet(caps)
        active.add(0, r1)
        active.allocate()
        active.add(1, r2)  # genuinely new route: no warm fill
        stats: dict = {}
        active.allocate(stats=stats)
        assert stats["warm"] is False
        assert active.full_passes == 2

    def test_set_rates_invalidates_levels(self, small_torus):
        caps = small_torus.links.capacities
        r1 = np.asarray(small_torus.route(0, 5), dtype=np.int64)
        active = ActiveSet(caps)
        active.add(0, r1)
        active.allocate()
        entries, ptr = active.gather_csr()
        active.set_rates(allocate(entries, ptr, caps))
        active.remove(0)
        active.add(1, r1)
        stats: dict = {}
        active.allocate(stats=stats)
        # externally installed rates poison the recorded water levels
        assert stats["warm"] is False


class TestSimulatorEquivalence:
    """The engine and the loop oracle must agree end to end."""

    WORKLOADS = (
        lambda n: AllReduce(n).build(),
        lambda n: UnstructuredApp(n, messages_per_task=3, seed=7).build(),
        lambda n: Permutation(n, repetitions=3).build(),
    )

    def test_identical_results_all_topologies(self, all_small_topologies):
        for topo in all_small_topologies:
            for make in self.WORKLOADS:
                flows = make(topo.num_endpoints)
                for fidelity in ("exact", "approx"):
                    inc = simulate(topo, flows, fidelity=fidelity)
                    reb = simulate_rebuild(topo, flows,
                                           fidelity=fidelity)
                    assert inc.events == reb.events
                    assert inc.makespan == \
                        pytest.approx(reb.makespan, rel=1e-12)
                    np.testing.assert_allclose(
                        inc.completion_times, reb.completion_times,
                        rtol=1e-9)

    def test_weighted_flows_agree(self, small_torus):
        b = FlowBuilder(8)
        rng = np.random.default_rng(3)
        for _ in range(24):
            s, d = int(rng.integers(8)), int(rng.integers(8))
            b.add_flow(s, d, float(rng.uniform(1, 4)) * CAP,
                       weight=float(rng.uniform(0.5, 3.0)))
        flows = b.build()
        inc = simulate(small_torus, flows)
        reb = simulate_rebuild(small_torus, flows)
        assert inc.makespan == pytest.approx(reb.makespan, rel=1e-9)

    def test_allocator_stats_reported(self, small_torus):
        flows = Permutation(small_torus.num_endpoints,
                            repetitions=4).build()
        inc = simulate(small_torus, flows)
        assert inc.allocator_stats is not None
        assert inc.allocator_stats["allocator"] == "incremental"
        assert inc.allocator_stats["full_passes"] >= 1
        # chained identical-route releases are the warm path's use case
        assert inc.allocator_stats["warm_fills"] > 0
        reb = simulate_rebuild(small_torus, flows)
        assert reb.allocator_stats["allocator"] == "rebuild"
        # the oracle recomputes from scratch at every allocation
        assert reb.allocator_stats["full_passes"] == reb.reallocations
        assert reb.allocator_stats["warm_fills"] == 0
