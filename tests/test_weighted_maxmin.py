"""Tests for weighted max-min fairness (flow priorities)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import simulate
from repro.engine.flows import FlowBuilder
from repro.errors import SimulationError, WorkloadError
from repro.topology import TorusTopology
from repro.units import DEFAULT_LINK_CAPACITY as CAP
from tests.oracle import allocate


def _alloc(routes, caps, weights=None):
    entries = np.concatenate([np.asarray(r, dtype=np.int64) for r in routes])
    ptr = np.zeros(len(routes) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in routes], out=ptr[1:])
    w = None if weights is None else np.asarray(weights, dtype=np.float64)
    return allocate(entries, ptr, np.asarray(caps, dtype=np.float64), w)


class TestWeightedAllocation:
    def test_two_to_one_split(self):
        rates = _alloc([[0], [0]], [9.0], weights=[2.0, 1.0])
        assert rates[0] == pytest.approx(6.0)
        assert rates[1] == pytest.approx(3.0)

    def test_unit_weights_match_unweighted(self):
        routes = [[0, 1], [0], [1]]
        caps = [2.0, 3.0]
        assert np.allclose(_alloc(routes, caps),
                           _alloc(routes, caps, weights=[1.0, 1.0, 1.0]))

    def test_weight_scaling_invariance(self):
        # multiplying all weights by a constant must not change rates
        routes = [[0, 1], [0], [1]]
        caps = [2.0, 3.0]
        a = _alloc(routes, caps, weights=[1.0, 2.0, 3.0])
        b = _alloc(routes, caps, weights=[10.0, 20.0, 30.0])
        assert np.allclose(a, b)

    def test_weighted_bottleneck_chain(self):
        # heavy flow and light flow share link 0; light also crosses the
        # tight link 1 and freezes there; heavy takes the remainder
        rates = _alloc([[0], [0, 1]], [3.0, 0.25], weights=[3.0, 1.0])
        assert rates[1] == pytest.approx(0.25)
        assert rates[0] == pytest.approx(2.75)

    def test_validation(self):
        with pytest.raises(SimulationError):
            _alloc([[0]], [1.0], weights=[0.0])
        with pytest.raises(SimulationError):
            _alloc([[0], [0]], [1.0], weights=[1.0])

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_feasibility_with_weights(self, data):
        num_links = data.draw(st.integers(1, 6))
        caps = [data.draw(st.floats(0.5, 4.0)) for _ in range(num_links)]
        routes, weights = [], []
        for _ in range(data.draw(st.integers(1, 10))):
            k = data.draw(st.integers(1, num_links))
            routes.append(list(data.draw(st.permutations(range(num_links)))[:k]))
            weights.append(data.draw(st.floats(0.1, 5.0)))
        rates = _alloc(routes, caps, weights=weights)
        assert (rates > 0).all()
        load = np.zeros(num_links)
        for r, rate in zip(routes, rates):
            for l in r:
                load[l] += rate
        assert (load <= np.asarray(caps) * (1 + 1e-6)).all()

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_rates_proportional_on_shared_bottleneck(self, data):
        """Flows with identical single-link routes split by weight."""
        n = data.draw(st.integers(2, 6))
        weights = [data.draw(st.floats(0.2, 5.0)) for _ in range(n)]
        rates = _alloc([[0]] * n, [7.0], weights=weights)
        ratios = rates / np.asarray(weights)
        assert np.allclose(ratios, ratios[0])
        assert rates.sum() == pytest.approx(7.0)


class TestWeightedSimulation:
    def test_priority_flow_finishes_first(self):
        topo = TorusTopology((4,), wraparound=False)
        b = FlowBuilder(4)
        fast = b.add_flow(0, 3, CAP, weight=3.0)
        slow = b.add_flow(0, 3, CAP, weight=1.0)
        r = simulate(topo, b.build())
        assert r.completion_times[fast] < r.completion_times[slow]

    def test_weighted_makespan(self):
        # weights 3:1 on a shared path; the light flow drains last:
        # phase 1 (until heavy done): rates 7.5/2.5 for 4/3 s; then light
        # finishes its remaining 2/3 CAP at full rate
        topo = TorusTopology((4,), wraparound=False)
        b = FlowBuilder(4)
        b.add_flow(0, 3, CAP, weight=3.0)
        b.add_flow(0, 3, CAP, weight=1.0)
        r = simulate(topo, b.build(), fidelity="exact")
        assert r.makespan == pytest.approx(4 / 3 + 2 / 3)

    def test_builder_rejects_bad_weight(self):
        b = FlowBuilder(2)
        with pytest.raises(WorkloadError):
            b.add_flow(0, 1, 1.0, weight=-2.0)

    def test_is_weighted_flag(self):
        b = FlowBuilder(2)
        b.add_flow(0, 1, 1.0)
        assert not b.build().is_weighted
        b.add_flow(0, 1, 1.0, weight=2.0)
        assert b.build().is_weighted
