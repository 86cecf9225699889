"""Tests for max-min fair progressive filling.

Includes a tiny reference implementation (textbook progressive filling with
Python floats) that the vectorised allocator is property-checked against.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.maxmin import bottleneck_lower_bound
from repro.errors import SimulationError
from tests.oracle import allocate


def _alloc(routes: list[list[int]], caps: list[float]) -> np.ndarray:
    entries = np.concatenate([np.asarray(r, dtype=np.int64) for r in routes])
    ptr = np.zeros(len(routes) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in routes], out=ptr[1:])
    return allocate(entries, ptr, np.asarray(caps, dtype=np.float64))


def reference_maxmin(routes: list[list[int]], caps: list[float]) -> list[float]:
    """Slow but obviously-correct progressive filling."""
    caps = list(caps)
    rates = [0.0] * len(routes)
    frozen = [False] * len(routes)
    level = 0.0
    while not all(frozen):
        counts = {}
        for i, r in enumerate(routes):
            if not frozen[i]:
                for l in r:
                    counts[l] = counts.get(l, 0) + 1
        delta = min(caps[l] / c for l, c in counts.items())
        level += delta
        for l, c in counts.items():
            caps[l] -= delta * c
        saturated = {l for l in counts if caps[l] <= 1e-9 * level}
        for i, r in enumerate(routes):
            if not frozen[i] and any(l in saturated for l in r):
                frozen[i] = True
                rates[i] = level
    return rates


class TestHandCases:
    def test_single_flow_gets_min_capacity(self):
        rates = _alloc([[0, 1]], [10.0, 4.0])
        assert rates[0] == pytest.approx(4.0)

    def test_equal_share_on_one_link(self):
        rates = _alloc([[0], [0], [0], [0]], [8.0])
        assert np.allclose(rates, 2.0)

    def test_two_bottlenecks(self):
        # flows A and B share link 0 (cap 2); flow B also crosses link 1
        # (cap 0.5) -> B freezes at 0.5, A takes the rest of link 0
        rates = _alloc([[0], [0, 1]], [2.0, 0.5])
        assert rates[1] == pytest.approx(0.5)
        assert rates[0] == pytest.approx(1.5)

    def test_classic_chain(self):
        # three links cap 1; flow X spans all, flows Y/Z each cross one link
        # with X -> X gets 1/2, Y and Z get 1/2 each (link 2 underused)
        rates = _alloc([[0, 1, 2], [0], [1]], [1.0, 1.0, 1.0])
        assert np.allclose(rates, [0.5, 0.5, 0.5])

    def test_disjoint_flows_fill_their_links(self):
        rates = _alloc([[0], [1]], [3.0, 7.0])
        assert rates.tolist() == [3.0, 7.0]

    def test_empty_batch(self):
        out = allocate(np.empty(0, dtype=np.int64),
                       np.zeros(1, dtype=np.int64), np.array([1.0]))
        assert out.size == 0

    def test_bad_ptr_rejected(self):
        with pytest.raises(SimulationError):
            allocate(np.array([0, 1]), np.array([0, 1]), np.array([1.0, 1.0]))

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            _alloc([[0]], [0.0])


class TestInvariants:
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_reference(self, data):
        num_links = data.draw(st.integers(1, 8))
        caps = data.draw(st.lists(
            st.floats(0.1, 10.0), min_size=num_links, max_size=num_links))
        num_flows = data.draw(st.integers(1, 12))
        routes = []
        for _ in range(num_flows):
            k = data.draw(st.integers(1, num_links))
            route = data.draw(st.permutations(range(num_links)))[:k]
            routes.append(list(route))
        fast = _alloc(routes, caps)
        slow = reference_maxmin(routes, caps)
        assert np.allclose(fast, slow, rtol=1e-6)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_feasible_and_positive(self, data):
        num_links = data.draw(st.integers(1, 10))
        caps = [data.draw(st.floats(0.5, 5.0)) for _ in range(num_links)]
        routes = []
        for _ in range(data.draw(st.integers(1, 20))):
            k = data.draw(st.integers(1, num_links))
            routes.append(list(data.draw(st.permutations(range(num_links)))[:k]))
        rates = _alloc(routes, caps)
        assert (rates > 0).all()
        load = np.zeros(num_links)
        for r, rate in zip(routes, rates):
            for l in r:
                load[l] += rate
        assert (load <= np.asarray(caps) * (1 + 1e-6)).all()

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_maxmin_bottleneck_condition(self, data):
        """Every flow crosses a saturated link where its rate is maximal."""
        num_links = data.draw(st.integers(1, 6))
        caps = [data.draw(st.floats(0.5, 4.0)) for _ in range(num_links)]
        routes = []
        for _ in range(data.draw(st.integers(1, 10))):
            k = data.draw(st.integers(1, num_links))
            routes.append(list(data.draw(st.permutations(range(num_links)))[:k]))
        rates = _alloc(routes, caps)
        load = np.zeros(num_links)
        for r, rate in zip(routes, rates):
            for l in r:
                load[l] += rate
        for i, r in enumerate(routes):
            has_bottleneck = any(
                load[l] >= caps[l] * (1 - 1e-6)
                and all(rates[j] <= rates[i] + 1e-9
                        for j, rj in enumerate(routes) if l in rj)
                for l in r)
            assert has_bottleneck, (routes, caps, rates)


class TestBottleneckBound:
    def test_simple(self):
        entries = np.array([0, 0, 1])
        ptr = np.array([0, 1, 3])
        caps = np.array([2.0, 1.0])
        sizes = np.array([4.0, 2.0])
        # link 0 carries 6 bits at cap 2 -> 3 s; link 1 carries 2 at 1 -> 2 s
        assert bottleneck_lower_bound(entries, ptr, caps, sizes) == 3.0

    def test_empty(self):
        assert bottleneck_lower_bound(np.empty(0, dtype=np.int64),
                                      np.zeros(1, dtype=np.int64),
                                      np.array([1.0]),
                                      np.empty(0)) == 0.0


class TestSlicesConcat:
    """Zero-length ranges (empty routes) must not corrupt the cumsum trick."""

    @staticmethod
    def _naive(starts, stops):
        if len(starts) == 0:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([np.arange(a, b, dtype=np.int64)
                               for a, b in zip(starts, stops)])

    @pytest.mark.parametrize("starts,stops", [
        ([0, 3, 3], [3, 3, 6]),    # zero-length range in the middle
        ([2, 5], [4, 5]),          # zero-length range at the end
        ([5, 0], [5, 2]),          # zero-length range at the start
        ([4], [4]),                # single empty range
        ([2, 2, 2], [2, 2, 2]),    # all ranges empty
        ([], []),                  # no ranges at all
        ([1, 6, 9], [4, 8, 12]),   # no empties (fast path unchanged)
    ])
    def test_matches_naive_concatenation(self, starts, stops):
        from repro.engine.maxmin import _slices_concat

        starts = np.asarray(starts, dtype=np.int64)
        stops = np.asarray(stops, dtype=np.int64)
        got = _slices_concat(starts, stops)
        assert np.array_equal(got, self._naive(starts, stops))

    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 10)),
                    max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_property(self, ranges):
        from repro.engine.maxmin import _slices_concat

        starts = np.asarray([a for a, _ in ranges], dtype=np.int64)
        stops = starts + np.asarray([n for _, n in ranges], dtype=np.int64)
        got = _slices_concat(starts, stops)
        assert np.array_equal(got, self._naive(starts, stops))
