"""Tests for the unstructured workloads: App, Mgnt, HR, Bisection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.units import KiB, MiB
from repro.workloads import (Bisection, UnstructuredApp, UnstructuredHR,
                             UnstructuredMgnt)
from repro.workloads.base import random_matching


class TestUnstructuredApp:
    def test_flow_count(self):
        fs = UnstructuredApp(16, messages_per_task=4).build()
        assert fs.num_flows == 64
        assert fs.num_dependencies == 0  # all independent (heavy)

    def test_no_self_messages(self):
        fs = UnstructuredApp(16, seed=11).build()
        assert (fs.src != fs.dst).all()

    def test_fixed_message_size(self):
        fs = UnstructuredApp(16, message_size=7.0).build()
        assert (fs.size == 7.0).all()

    def test_deterministic_by_seed(self):
        a = UnstructuredApp(16, seed=3).build()
        b = UnstructuredApp(16, seed=3).build()
        assert (a.dst == b.dst).all()
        c = UnstructuredApp(16, seed=4).build()
        assert (a.dst != c.dst).any()

    def test_invalid_messages(self):
        with pytest.raises(WorkloadError):
            UnstructuredApp(16, messages_per_task=0)


class TestUnstructuredMgnt:
    def test_per_task_chains(self):
        wl = UnstructuredMgnt(8, messages_per_task=5)
        fs = wl.build()
        assert fs.num_flows == 40
        # one root per task, all other flows wait on exactly one predecessor
        assert (fs.indegree == 0).sum() == 8
        assert fs.dependency_depth() == 5

    def test_size_mixture_bands(self):
        wl = UnstructuredMgnt(64, messages_per_task=32, seed=0)
        sizes = wl.build().size
        assert sizes.min() >= 2 * KiB * 0.99
        assert sizes.max() <= 16 * MiB * 1.01
        mice = (sizes <= 32 * KiB).mean()
        assert 0.7 <= mice <= 0.9  # ~80% mice (Kandula et al. shape)

    def test_elephants_exist(self):
        sizes = UnstructuredMgnt(64, messages_per_task=32, seed=1).build().size
        assert (sizes > 1 * MiB).any()

    def test_deterministic(self):
        a = UnstructuredMgnt(16, seed=9).build()
        b = UnstructuredMgnt(16, seed=9).build()
        assert np.allclose(a.size, b.size)


class TestUnstructuredHR:
    def test_hot_tasks_receive_most_traffic(self):
        wl = UnstructuredHR(64, messages_per_task=16, seed=2,
                            hot_fraction=0.125, hot_probability=0.75)
        fs = wl.build()
        hot = set(wl.hot_tasks().tolist())
        assert len(hot) == 8
        hot_share = np.isin(fs.dst, list(hot)).mean()
        # 75% directed traffic + ~12.5% of the uniform remainder
        assert 0.6 <= hot_share <= 0.9

    def test_no_self_messages(self):
        fs = UnstructuredHR(32, seed=5).build()
        assert (fs.src != fs.dst).all()

    def test_parameter_validation(self):
        with pytest.raises(WorkloadError):
            UnstructuredHR(16, hot_fraction=0.0)
        with pytest.raises(WorkloadError):
            UnstructuredHR(16, hot_probability=1.5)

    def test_uniform_limit(self):
        # hot_probability 0 degenerates to UnstructuredApp-like traffic
        wl = UnstructuredHR(64, messages_per_task=8, hot_probability=0.0,
                            seed=3)
        fs = wl.build()
        hot = set(wl.hot_tasks().tolist())
        assert np.isin(fs.dst, list(hot)).mean() < 0.3


class TestBisection:
    def test_flow_count(self):
        fs = Bisection(16, rounds=3).build()
        assert fs.num_flows == 48

    def test_each_round_is_a_matching(self):
        wl = Bisection(16, rounds=2, seed=7)
        fs = wl.build()
        for r in range(2):
            sl = slice(r * 16, (r + 1) * 16)
            pairs = {(int(s), int(d))
                     for s, d in zip(fs.src[sl], fs.dst[sl])}
            # symmetric: a->b implies b->a, and every task appears once
            assert all((d, s) in pairs for s, d in pairs)
            assert sorted(s for s, _ in pairs) == list(range(16))

    def test_rounds_chain_per_task(self):
        fs = Bisection(16, rounds=3).build()
        assert fs.dependency_depth() == 3

    def test_odd_task_count_rejected(self):
        with pytest.raises(WorkloadError):
            Bisection(15)

    def test_rounds_validated(self):
        with pytest.raises(WorkloadError):
            Bisection(16, rounds=0)


class TestRandomMatching:
    def test_is_involution_without_fixed_points(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            partner = random_matching(rng, 32)
            assert (partner[partner] == np.arange(32)).all()
            assert (partner != np.arange(32)).all()

    def test_odd_rejected(self):
        with pytest.raises(WorkloadError):
            random_matching(np.random.default_rng(0), 7)
