"""Tests for the persistent incremental max-min allocator.

The :class:`~repro.engine.active.ActiveSet` must produce the *same* rates
as the reference :func:`tests.oracle.allocate` on whatever flow set it
currently holds — after any interleaving of admissions and retirements,
on every topology family, with and without weights, through the relevel
and the full pass alike.  These tests drive it through randomized churn
and compare against the reference on the CSR gathered from the set's
pool.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.engine import simulate
from repro.engine.active import _PATCH_MAX, ActiveSet, _packed_order
from repro.engine.flows import FlowBuilder
from repro.engine.kernels import numpy_fill
from repro.errors import SimulationError
from repro.obs import MetricsCollector
from repro.topology import build as build_topology
from repro.units import DEFAULT_LINK_CAPACITY as CAP
from repro.workloads import AllReduce, Permutation, UnstructuredApp
from repro.workloads import build as build_workload
from tests.oracle import (allocate, assert_results_identical, pool_csr,
                          simulate_rebuild)
from tests.test_route_cache import _run


def _reference_rates(active: ActiveSet, capacities: np.ndarray,
                     weighted: bool) -> np.ndarray:
    """Reference allocation over the set's current flows (slot order)."""
    entries, ptr = pool_csr(active)
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

    @pytest.mark.parametrize("fids", [[3, 5, 3], [4, 1], [2, 2]])
    def test_batch_repeat_rejected_and_rolled_back(self, fids):
        """A batch naming an id twice, or an id already active, raises
        and leaves every id's slot as it was."""
        active = ActiveSet(np.ones(4))
        active.add(1, np.array([0], dtype=np.int64), rate=2.0)
        before = active._slot_arr.copy()
        lens = np.ones(len(fids), dtype=np.int64)
        entries = np.asarray(fids, dtype=np.int64) % 4
        with pytest.raises(SimulationError, match="repeats an active flow"):
            active.add_many(np.asarray(fids), lens, entries)
        assert active._slot_arr.tolist() == before.tolist()
        assert active.size == 1 and active.flow_ids.tolist() == [1]
        # the rejected ids are still free to join
        active.add_many(np.array([3, 5]), lens[:2], entries[:1].repeat(2))
        assert sorted(active.flow_ids.tolist()) == [1, 3, 5]

    def test_batch_empty_route_rejected(self):
        active = ActiveSet(np.ones(2))
        with pytest.raises(SimulationError, match="flow 8 has an empty"):
            active.add_many(np.array([7, 8]), np.array([1, 0]),
                            np.array([0], dtype=np.int64))
        assert active.size == 0

    @pytest.mark.parametrize("lens,entries", [([2, 1], [0, 1]),
                                              ([1], [0, 1]),
                                              ([1, 1, 1], [0, 1, 0])])
    def test_batch_csr_shape_checked(self, lens, entries):
        """Lengths that do not match the flows or the link ids raise
        and admit nothing."""
        active = ActiveSet(np.ones(2))
        with pytest.raises(SimulationError, match="one route length"):
            active.add_many(np.array([7, 8]), np.asarray(lens),
                            np.asarray(entries, dtype=np.int64))
        assert active.size == 0 and (active._slot_arr < 0).all()

    def test_nonpositive_weight_rejected(self):
        active = ActiveSet(np.ones(2), weighted=True)
        with pytest.raises(SimulationError):
            active.add(0, np.array([0], dtype=np.int64), weight=0.0)

    def test_remove_unknown_rejected(self):
        active = ActiveSet(np.ones(2))
        with pytest.raises(SimulationError):
            active.remove(99)

    @pytest.mark.parametrize("fids", [[3, 5, 3], [5, 5], [3, 2], [1, 99]],
                             ids=["repeat", "repeat-only", "inactive",
                                  "unknown"])
    def test_batch_removal_rejected_and_untouched(self, fids):
        """A removal batch naming an id twice, or an id not active,
        raises and mutates nothing."""
        active = ActiveSet(np.ones(4))
        for fid in (1, 3, 5):
            active.add(fid, np.array([fid % 4], dtype=np.int64),
                       rate=float(fid))
        ids, rates = active.flow_ids.copy(), active.rates.copy()
        slots = active._slot_arr.copy()
        with pytest.raises(SimulationError, match="names an inactive flow"):
            active.remove_many(np.asarray(fids))
        assert active.flow_ids.tolist() == ids.tolist()
        assert active.rates.tolist() == rates.tolist()
        assert active._slot_arr.tolist() == slots.tolist()
        active.remove_many(np.array([3, 5]))
        assert active.flow_ids.tolist() == [1]

    def test_empty_allocation_is_noop(self):
        active = ActiveSet(np.ones(2))
        stats: dict = {}
        assert active.allocate(stats=stats).shape == (0,)
        assert stats == {"iterations": 0, "relevel": False}


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
        assert active.relevel_fills == 0  # weighted sets never relevel

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
                # weighted fills may diverge from the reference only
                # within float tolerance
                np.testing.assert_allclose(
                    got, want, rtol=1e-12 if not weighted else 1e-9)


@contextlib.contextmanager
def _small_windows(window: int = 2, dense: bool = True):
    """Run the fill kernel's windowed rounds on small instances.

    By default a fill over at most ``numpy_fill._ALL_LINKS`` live links,
    or expected to take fewer than ``numpy_fill._MIN_ITERATIONS``
    iterations, only takes reference steps over all of them, and a
    larger one turns to windowed rounds only once a step saturates few
    of its links; test-sized instances never get past any of these.
    This shrinks the window and turns all three off, so every
    unweighted fill that outlives its first step runs deferred links,
    key bounds, misses, replays (in chunks of a few links) and the
    end-of-round write-back; the window never grows past twice its
    start, so wider ties take the step that brings every deferred link
    up to date.  ``dense=False`` caps the dense window incidence at
    nothing, so every round falls back to such a step.
    """
    names = ("_WINDOW", "_MAX_WINDOW", "_ALL_LINKS", "_SPREAD",
             "_MIN_ITERATIONS", "_REPLAY_CELLS", "_DENSE_CELLS")
    saved = [getattr(numpy_fill, name) for name in names]
    for name, value in zip(names, (window, 2 * window, 0, 0, 0, 8,
                                   saved[6] if dense else 0)):
        setattr(numpy_fill, name, value)
    try:
        yield
    finally:
        for name, value in zip(names, saved):
            setattr(numpy_fill, name, value)


def _exact_rates(routes: list[np.ndarray], caps: np.ndarray,
                 weights: list[float]) -> tuple[list[Fraction], bool]:
    """Progressive filling in exact rational arithmetic.

    Raises the water level to the lowest link saturation level
    ``(cap - frozen bandwidth) / unfrozen weight`` and freezes every flow
    crossing a link that saturates exactly there — the mathematics the
    float loop approximates, with no tie rule.  Also returns whether
    every link's saturation level stayed clear of the water level by
    more than the float loop's tie rule can bridge (a relative 1e-9;
    the rule merges a link whose residual is within ``1e-12 * cap``).
    """
    n = len(routes)
    w = [Fraction(x) for x in weights]
    caps_q = [Fraction(float(c)) for c in caps]
    rates: list[Fraction | None] = [None] * n
    links = sorted({int(l) for r in routes for l in r})
    on = {l: [f for f in range(n) if l in routes[f]] for l in links}
    clear = True
    while any(r is None for r in rates):
        saturation = {}
        for l in links:
            weight = sum((w[f] for f in on[l] if rates[f] is None),
                         Fraction(0))
            if weight:
                claimed = sum((rates[f] for f in on[l]
                               if rates[f] is not None), Fraction(0))
                saturation[l] = (caps_q[l] - claimed) / weight
        level = min(saturation.values())
        sat = {l for l, s in saturation.items() if s == level}
        clear &= all(s == level or s - level > level / 10**9
                     for s in saturation.values())
        for f in range(n):
            if rates[f] is None and sat & {int(l) for l in routes[f]}:
                rates[f] = w[f] * level
    return rates, clear  # type: ignore[return-value]


@st.composite
def _fill_scripts(draw):
    """A link set, a route pool and a churn script over them.

    Capacities mix exact ties (small multiples of one capacity), near
    ties inside the saturation tie rule (a few 1e-13 apart) and free
    values; routes repeat, so identical-route flows tie exactly, and
    steps that only remove flows drive the relevel.
    The pool holds every single-link route and a fresh route is often
    admitted six times over: a ladder of lone flows on links of distinct
    capacity above a crowded link is what makes full passes and relevels
    run many iterations, resolved several to a windowed round.
    """
    num_links = draw(st.integers(3, 24))
    caps = []
    for _ in range(num_links):
        kind = draw(st.sampled_from(("tie", "near", "free")))
        if kind == "tie":
            caps.append(CAP * draw(st.sampled_from((1.0, 2.0, 3.0))))
        elif kind == "near":
            caps.append(CAP * (1.0 + draw(st.integers(-5, 5)) * 1e-13))
        else:
            caps.append(CAP * draw(st.floats(0.25, 4.0)))
    pool = []
    for _ in range(draw(st.integers(1, 12))):
        k = draw(st.integers(1, min(3, num_links)))
        pool.append(np.asarray(
            draw(st.permutations(range(num_links)))[:k], dtype=np.int64))
    pool += [np.asarray([link], dtype=np.int64)
             for link in range(num_links)]
    weighted = draw(st.booleans())
    script: list[tuple] = []
    alive: list[int] = []
    next_fid = 0
    for step in range(draw(st.integers(1, 8))):
        removed = 0
        if alive:
            removed = draw(st.integers(0, min(4, len(alive))))
            for _ in range(removed):
                fid = alive.pop(draw(st.integers(0, len(alive) - 1)))
                script.append(("remove", fid))
        # half the steps that remove flows admit none (the relevel's
        # case); the others admit fresh pool routes
        adds = 0 if removed and draw(st.booleans()) \
            else draw(st.integers(0 if step else 1, 12))
        batch = []
        for _ in range(adds):
            route = pool[draw(st.integers(0, len(pool) - 1))]
            for _ in range(draw(st.sampled_from((1, 1, 1, 6)))):
                weight = float(draw(st.sampled_from((1, 2, 3)))) \
                    if weighted else 1.0
                batch.append((next_fid, route, weight))
                alive.append(next_fid)
                next_fid += 1
        many = draw(st.booleans())
        for fid, route, weight in batch:
            script.append(("add", fid, route, weight, many))
        if alive:
            script.append(("allocate",))
    return np.asarray(caps), weighted, script


class TestWindowedFillProperty:
    """Hypothesis: the windowed water-level loop is the reference loop.

    Each script is replayed on three sets — windowed rounds with the
    relevel on, windowed fills whose rounds all fall back to steps with
    it off, and the default kernel (small fills only step) with it off —
    and every allocation must agree bit for bit on rates and recorded
    levels, match :func:`tests.oracle.allocate` on rates (and on
    iteration counts for every full pass), and, for at most eight
    flows, match exact rational progressive filling to 1e-12 — where no
    link's saturation level sits within the float loop's tie rule of the
    water level, since the rule is the loop's, not the mathematics'.
    """

    @settings(deadline=None)
    @given(_fill_scripts())
    def test_windowed_rounds_match_reference(self, case):
        caps, weighted, script = case
        logs = []
        for ctx, relevel in ((_small_windows(), True),
                             (_small_windows(dense=False), False),
                             (contextlib.nullcontext(), False)):
            with ctx:
                log, batched = self._replay(caps, weighted, script, relevel)
            logs.append(log)
            for kind in batched:
                # reported by pytest --hypothesis-show-statistics
                event(f"{kind} fill in rounds of several iterations")
        base = logs[0]
        for other in logs[1:]:
            assert len(other) == len(base)
            for i, (a, b) in enumerate(zip(base, other)):
                assert a[0] == b[0], f"rates differ at allocation {i}"
                np.testing.assert_array_equal(
                    a[1], b[1], err_msg=f"levels differ at allocation {i}")

    def test_property_exercises_windowed_rounds(self):
        """Meta-check: across the property's examples, windowed rounds
        resolve several iterations at once in full passes and in
        relevels alike (guards against a vacuous property)."""
        batched = Counter()

        @settings(max_examples=100, derandomize=True, database=None,
                  deadline=None)
        @given(_fill_scripts())
        def run(case):
            caps, weighted, script = case
            with _small_windows():
                batched.update(self._replay(caps, weighted, script,
                                            True)[1])

        run()
        assert batched["full"] > 0 and batched["relevel"] > 0

    @staticmethod
    def _replay(caps, weighted, script, relevel):
        """The script's allocations (rates by flow id, recorded levels),
        checked against the reference on the way, and the kinds of fill
        (``"full"``, ``"relevel"``) that took fewer rounds than
        iterations."""
        active = ActiveSet(caps, weighted=weighted)
        active.RELEVEL = relevel
        route_of: dict[int, np.ndarray] = {}
        weight_of: dict[int, float] = {}
        log = []
        batched: set[str] = set()
        pending: list[tuple] = []

        def flush():
            if not pending:
                return
            fids = np.asarray([op[1] for op in pending], dtype=np.int64)
            active.add_many(fids, np.asarray([len(op[2]) for op in pending]),
                            np.concatenate([op[2] for op in pending]),
                            weights=np.asarray([op[3] for op in pending])
                            if weighted else None)
            pending.clear()

        for op in script:
            if op[0] == "add":
                route_of[op[1]] = op[2]
                weight_of[op[1]] = op[3]
                if op[4]:
                    pending.append(op)
                    continue
                flush()
                active.add(op[1], op[2], weight=op[3])
                continue
            flush()
            if op[0] == "remove":
                active.remove(op[1])
                continue
            stats: dict = {}
            rounds = active.fill_rounds
            rates = active.allocate(stats=stats).copy()
            if active.fill_rounds - rounds < stats["iterations"]:
                batched.add("relevel" if stats.get("relevel") else "full")
            got = dict(zip(active.flow_ids.tolist(), rates.tolist()))
            entries, ptr = pool_csr(active)
            ref_stats: dict = {}
            want = allocate(entries, ptr, caps,
                            active.weights.copy() if weighted else None,
                            stats=ref_stats)
            assert rates.tolist() == want.tolist()
            if not stats["relevel"]:
                assert stats["iterations"] == ref_stats["iterations"]
            if len(got) <= 8:
                fids = active.flow_ids.tolist()
                exact, clear = _exact_rates([route_of[f] for f in fids],
                                            caps,
                                            [weight_of[f] for f in fids])
                if clear:
                    np.testing.assert_allclose(
                        rates, [float(x) for x in exact], rtol=1e-12)
            log.append((got, active._levels.copy()))
        return log, batched


class TestWindowedRounds:
    def test_rounds_batch_iterations(self, small_fattree):
        """Meta-check: with small windows a fill takes several rounds,
        and at least one round resolves more than one iteration."""
        caps = small_fattree.links.capacities
        rng = np.random.default_rng(4)
        cache: dict = {}
        with _small_windows(4):
            active = ActiveSet(caps)
            for fid in range(96):
                active.add(fid, _random_route(small_fattree, rng, cache))
            stats: dict = {}
            got = active.allocate(stats=stats).copy()
        want = _reference_rates(active, caps, weighted=False)
        assert got.tolist() == want.tolist()
        assert 1 < active.fill_rounds < stats["iterations"]

    def test_relevel_rounds_batch_iterations(self):
        """A relevel resumes in windowed rounds and matches the full pass.

        Eight flows share a three-link route and saturate first; one lone
        flow sits on each of ten more links, their capacities rising.
        Retiring the lowest lone flow leaves nine levels to resume above
        the crowded one.
        """
        caps = CAP * np.concatenate(([1.0, 1.0, 1.0],
                                     1.0 + np.arange(10) / 4.0))
        crowded = np.asarray([0, 1, 2], dtype=np.int64)
        sets = []
        with _small_windows():
            for relevel in (True, False):
                active = ActiveSet(caps)
                active.RELEVEL = relevel
                for fid in range(8):
                    active.add(fid, crowded)
                for link in range(3, 13):
                    active.add(5 + link, np.asarray([link], dtype=np.int64))
                active.allocate()
                active.remove(8)
                rounds = active.fill_rounds
                stats: dict = {}
                sets.append((active.allocate(stats=stats).copy(), active,
                             active.fill_rounds - rounds, stats))
        (got, active, rounds, stats), (full, twin, _, _) = sets
        assert stats.get("relevel") and active.relevel_fills == 1
        assert 1 < rounds < stats["iterations"] == 9
        assert got.tolist() == full.tolist() \
            == _reference_rates(active, caps, weighted=False).tolist()
        np.testing.assert_array_equal(active._levels, twin._levels)

    @pytest.mark.parametrize(
        "workload", ("bisection", "unstructuredapp", "unstructuredhr"))
    @pytest.mark.parametrize("fidelity", ("exact", "approx"))
    def test_windowed_simulation_matches_oracle(self, small_nesttree,
                                                workload, fidelity):
        flows = build_workload(workload, small_nesttree.num_endpoints,
                               seed=0).build()
        metrics = MetricsCollector(small_nesttree.links.num_links)
        with _small_windows(4):
            result = simulate(small_nesttree, flows, fidelity=fidelity,
                              metrics=metrics)
        assert_results_identical(
            result, simulate_rebuild(small_nesttree, flows,
                                     fidelity=fidelity),
            "windowed", "oracle")
        # some round resolved several water levels at once
        assert result.allocator_stats["fill_rounds"] \
            < result.metrics["allocator"]["filling_iterations_total"]


class TestWarmPath:
    """There is no warm path: an admission always takes the full pass,
    even one that restores the multiset of routes."""

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
        # the multiset of routes is unchanged, and the set full-passes
        active.remove(0)
        active.add(3, r1)
        stats: dict = {}
        got = active.allocate(stats=stats).copy()
        assert stats["relevel"] is False and stats["iterations"] > 0
        assert active.full_passes == 2
        assert active.warm_fills == 0 and active.relevel_fills == 0
        want = _reference_rates(active, caps, weighted=False)
        assert got.tolist() == want.tolist()

    def test_changed_multiset_takes_full_pass(self, small_torus):
        caps = small_torus.links.capacities
        r1 = np.asarray(small_torus.route(0, 5), dtype=np.int64)
        r2 = np.asarray(small_torus.route(3, 9), dtype=np.int64)
        active = ActiveSet(caps)
        active.add(0, r1)
        active.allocate()
        active.add(1, r2)  # an admission: full pass
        stats: dict = {}
        active.allocate(stats=stats)
        assert stats["relevel"] is False
        assert active.full_passes == 2


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
        reb = simulate_rebuild(small_torus, flows)
        assert reb.allocator_stats["allocator"] == "rebuild"
        # the oracle recomputes from scratch at every allocation
        assert reb.allocator_stats["full_passes"] == reb.reallocations
        assert reb.allocator_stats["warm_fills"] == 0


class TestPackedOrder:
    """The CSR rebuild's sort of packed ``link << b | position`` words."""

    @pytest.mark.parametrize("n,num_keys", [(0, 1), (1, 1), (2, 1), (7, 3),
                                            (1000, 5), (4096, 4096),
                                            (5000, 1 << 40)])
    def test_matches_stable_argsort(self, n, num_keys):
        keys = np.random.default_rng(n).integers(0, num_keys, size=n)
        np.testing.assert_array_equal(_packed_order(keys, num_keys),
                                      np.argsort(keys, kind="stable"))

    def test_words_past_63_bits_refused(self):
        with pytest.raises(AssertionError, match="63 bits"):
            _packed_order(np.zeros(4, dtype=np.int64), 1 << 62)


@contextlib.contextmanager
def _counted_rebuilds():
    """Count ``ActiveSet._csr_rebuild`` calls (a list, one entry each)."""
    calls: list[bool] = []
    rebuild = ActiveSet._csr_rebuild

    def counted(self, weights, slack, *live):
        calls.append(slack)
        rebuild(self, weights, slack, *live)

    ActiveSet._csr_rebuild = counted
    try:
        yield calls
    finally:
        ActiveSet._csr_rebuild = rebuild


@st.composite
def _bulk_sets(draw):
    """Links and rounds of bulk admissions of unweighted flows.

    Each round retires some of the live flows and admits over
    ``_PATCH_MAX`` new ones in one batch, so every allocation is a full
    pass that would rebuild its CSR tight.  Half the sets are symmetric
    shift patterns: flow ``i`` of a round crosses ``k`` consecutive links
    from ``i`` on, modulo the link count, so every link carries the same
    count and, at equal capacities, the first level freezes every flow;
    the others draw short routes and capacities at random, mixing exact
    and near ties.
    """
    num_links = draw(st.integers(2, 32))
    shift = draw(st.booleans())
    if shift and draw(st.booleans()):
        caps = [CAP] * num_links
    else:
        caps = [CAP * draw(st.sampled_from((1.0, 2.0, 1.0 + 1e-13, 0.5)))
                for _ in range(num_links)]
    rounds = []
    for _ in range(draw(st.integers(1, 3))):
        retire = draw(st.floats(0.0, 1.0))
        n = draw(st.integers(_PATCH_MAX + 1, 160))
        if shift:
            k = draw(st.integers(1, min(3, num_links)))
            routes = [[(i + j) % num_links for j in range(k)]
                      for i in range(n)]
        else:
            routes = [draw(st.permutations(range(num_links)))[
                :draw(st.integers(1, min(3, num_links)))]
                for _ in range(n)]
        rounds.append((retire, routes))
    return np.asarray(caps), rounds


class TestFirstLevelExit:
    """A bulk unweighted full pass whose first water level freezes every
    flow stops there without a link→flows CSR, writing exactly what the
    fill kernel would have written."""

    @settings(deadline=None)
    @given(_bulk_sets(), st.integers(0, 2**31 - 1))
    def test_matches_reference(self, case, seed):
        for kind in self._replay(*case, seed):
            event(kind)  # reported by pytest --hypothesis-show-statistics

    def test_property_exercises_both_outcomes(self):
        """Meta-check: the property's examples take the exit and fall
        through to the CSR alike (guards against a vacuous property)."""
        kinds = Counter()

        @settings(max_examples=60, derandomize=True, database=None,
                  deadline=None)
        @given(_bulk_sets(), st.integers(0, 2**31 - 1))
        def run(case, seed):
            kinds.update(self._replay(*case, seed))

        run()
        assert kinds["exit"] > 0 and kinds["fall-through"] > 0

    @staticmethod
    def _replay(caps, rounds, seed):
        """Allocate after each round, check every allocation against the
        reference bit for bit, and return how each pass ended."""
        rng = np.random.default_rng(seed)
        active = ActiveSet(caps)
        kinds = []
        next_fid = 0
        with _counted_rebuilds() as rebuilds:
            for retire, routes in rounds:
                live = active.flow_ids.copy()
                gone = live[rng.random(live.shape[0]) < retire]
                active.remove_many(gone)
                lens = np.asarray([len(r) for r in routes])
                active.add_many(
                    np.arange(next_fid, next_fid + len(routes)), lens,
                    np.concatenate(routes).astype(np.int64))
                next_fid += len(routes)
                before = len(rebuilds)
                rounds0 = active.fill_rounds
                stats: dict = {}
                rates = active.allocate(stats=stats).copy()
                rebuilt = len(rebuilds) > before
                assert rebuilds[before:] in ([], [False])  # tight, if any
                entries, ptr = pool_csr(active)
                ref: dict = {}
                want = allocate(entries, ptr, caps, stats=ref)
                assert rates.tolist() == want.tolist()
                assert stats["iterations"] == ref["iterations"]
                # the exit is taken exactly when one level is the fill
                assert rebuilt == (ref["iterations"] > 1)
                assert active._delta_seq.tolist() == ref["deltas"]
                assert active._level_seq.tolist() == ref["levels"]
                sat = np.concatenate(ref["saturated"])
                np.testing.assert_array_equal(active._level_links, sat)
                levels = np.full(caps.shape[0], np.inf)
                levels[sat] = np.repeat(ref["levels"],
                                        [s.shape[0] for s in ref["saturated"]])
                np.testing.assert_array_equal(active._levels, levels)
                assert active._seq_ok and not active._csr_ok
                # test-sized fills only step: one round per level
                assert active.fill_rounds - rounds0 == stats["iterations"] \
                    == active._fill_iterations
                kinds.append("fall-through" if rebuilt else "exit")
        return kinds

    @pytest.mark.parametrize("family,params", [
        ("torus", {}), ("fattree", {}), ("nesttree", {"t": 2, "u": 4}),
        ("nestghc", {"t": 2, "u": 4})])
    def test_cold_allreduce_builds_no_csr(self, family, params,
                                          monkeypatch):
        """Every allocation of a cold 512-endpoint allreduce ends at its
        first level, so the cell runs with the CSR rebuild refused and
        ends exactly as with it allowed."""
        flows = AllReduce(512).build()
        want = simulate(build_topology(family, 512, **params), flows,
                        fidelity="approx")

        def refuse(*args, **kwargs):
            raise AssertionError("the full pass rebuilt its CSR")

        monkeypatch.setattr(ActiveSet, "_csr_rebuild", refuse)
        got = simulate(build_topology(family, 512, **params), flows,
                       fidelity="approx")
        assert got.makespan.hex() == want.makespan.hex()
        assert got.events == want.events
        assert got.allocator_stats == want.allocator_stats


@pytest.mark.scale_smoke
def test_32k_allreduce_cell_builds_no_csr():
    """A cold 32,768-endpoint allreduce cell on ``nesttree(2,4)`` (491,520
    flows) with the CSR rebuild refused, in a fresh interpreter: every
    allocation ends at its first level, the makespan is the one the
    CSR-backed pass gives, and peak RSS stays under 240 MB."""
    out = _run(
        "import resource\n"
        "from repro.engine import simulate\n"
        "from repro.engine.active import ActiveSet\n"
        "from repro.topology import build\n"
        "from repro.workloads import build as build_workload\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('the full pass rebuilt its CSR')\n"
        "ActiveSet._csr_rebuild = refuse\n"
        "topo = build('nesttree', 32768, t=2, u=4)\n"
        "flows = build_workload('allreduce', 32768, seed=0).build()\n"
        "result = simulate(topo, flows, fidelity='approx')\n"
        "rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \\\n"
        "    / 1024.0\n"
        "print(f'makespan={result.makespan.hex()} rss_mb={rss_mb:.0f}')\n"
        "assert rss_mb < 240.0, f'RSS {rss_mb:.0f} MiB over budget'\n")
    assert "makespan=0x1.5e7826197eb31p-6 " in out
