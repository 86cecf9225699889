"""Unit and property tests for UP*/DOWN* routing on generalised fattrees."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from tests import updown_oracle as updown

arities_st = st.lists(st.integers(min_value=2, max_value=5),
                      min_size=1, max_size=3)


class TestCounts:
    def test_leaf_count(self):
        assert updown.leaf_count((4, 4, 2)) == 32

    def test_switch_count_kary(self):
        # classic k-ary n-tree: n * k^(n-1)
        assert updown.switch_count((4, 4, 4)) == 3 * 16

    def test_switch_count_paper_full_scale(self):
        # Table 2 reference: (32, 32, 128) -> 9216 switches
        assert updown.switch_count((32, 32, 128)) == 9216

    def test_switches_at_level(self):
        assert updown.switches_at_level((4, 2), 1) == 2
        assert updown.switches_at_level((4, 2), 2) == 4

    def test_invalid_level(self):
        with pytest.raises(RoutingError):
            updown.switches_at_level((4, 2), 3)


class TestDigits:
    def test_known(self):
        assert updown.leaf_digits(5, (4, 2)) == (1, 1)

    def test_out_of_range(self):
        with pytest.raises(RoutingError):
            updown.leaf_digits(8, (4, 2))

    @given(arities_st, st.data())
    def test_roundtrip(self, arities, data):
        total = updown.leaf_count(arities)
        leaf = data.draw(st.integers(0, total - 1))
        digits = updown.leaf_digits(leaf, arities)
        value = 0
        for d, k in zip(reversed(digits), reversed(arities)):
            value = value * k + d
        assert value == leaf


class TestNCA:
    def test_same_level1_group(self):
        assert updown.nca_level(0, 3, (4, 4, 2)) == 1

    def test_same_level2_subtree(self):
        assert updown.nca_level(0, 4, (4, 4, 2)) == 2

    def test_top_level(self):
        assert updown.nca_level(0, 16, (4, 4, 2)) == 3

    def test_identical_leaves_rejected(self):
        with pytest.raises(RoutingError):
            updown.nca_level(3, 3, (4, 4))

    @given(arities_st, st.data())
    @settings(max_examples=150)
    def test_definition(self, arities, data):
        total = updown.leaf_count(arities)
        a = data.draw(st.integers(0, total - 1))
        b = data.draw(st.integers(0, total - 1).filter(lambda x: x != a))
        m = updown.nca_level(a, b, arities)
        group = math.prod(arities[:m])
        assert a // group == b // group
        if m > 1:
            smaller = math.prod(arities[:m - 1])
            assert a // smaller != b // smaller


class TestSwitchPath:
    @given(arities_st, st.data())
    @settings(max_examples=150)
    def test_path_structure(self, arities, data):
        total = updown.leaf_count(arities)
        a = data.draw(st.integers(0, total - 1))
        b = data.draw(st.integers(0, total - 1).filter(lambda x: x != a))
        path = updown.switch_path(a, b, arities)
        m = updown.nca_level(a, b, arities)
        # 2m-1 switches: up m, down m-1
        assert len(path) == 2 * m - 1
        # ends attach to the right leaves
        assert path[0] == updown.Switch(1, a // arities[0], ())
        assert path[-1] == updown.Switch(1, b // arities[0], ())
        # levels rise to the NCA then fall
        levels = [s.level for s in path]
        assert levels == list(range(1, m + 1)) + list(range(m - 1, 0, -1))
        # every consecutive pair is an existing fattree link
        for x, y in zip(path, path[1:]):
            assert updown.validate_adjacent(x, y, arities), (x, y)

    def test_path_lengths(self):
        assert updown.path_lengths(0, 1, (4, 4)) == 2
        assert updown.path_lengths(0, 4, (4, 4)) == 4


class TestValidateAdjacent:
    def test_rejects_same_level(self):
        a = updown.Switch(1, 0, ())
        b = updown.Switch(1, 1, ())
        assert not updown.validate_adjacent(a, b, (4, 4))

    def test_rejects_wrong_subtree(self):
        lo = updown.Switch(1, 0, ())
        hi = updown.Switch(2, 1, (0,))
        assert not updown.validate_adjacent(lo, hi, (4, 4))

    def test_accepts_every_up_port(self):
        lo = updown.Switch(1, 5, ())
        for x in range(4):
            hi = updown.Switch(2, 5 // 4, (x,))
            assert updown.validate_adjacent(lo, hi, (4, 4))

    def test_rejects_port_out_of_range(self):
        lo = updown.Switch(1, 0, ())
        hi = updown.Switch(2, 0, (4,))
        assert not updown.validate_adjacent(lo, hi, (4, 4))
