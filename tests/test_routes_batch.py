"""Batched deterministic routing: ``Topology.routes`` against ``route``.

``routes(src, dst)`` must return, row for row, exactly what the scalar
``route(s, d)`` returns — NIC links included — for every family: the
torus/mesh, fattree, GHC and nested families through link ids computed
from their wiring layout, the others (and any ``DegradedTopology``)
through the base-class loop.  The route cache the simulator fills in batches must serve the
scalar lookups that follow with the same keys, dtype and array objects.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import analyze, simulate
from repro.engine import RouteCache, simulator
from repro.engine import routes as routes_mod
from repro.engine.routes import ViewRoutes, flow_pairs
from repro.engine.simulator import _make_route_fn
from repro.errors import DegradedNetworkError, RoutingError, TopologyError
from repro.topology import DegradedTopology, FaultSet, available, build
from repro.topology.hybrid import SubtorusPlan
from repro.workloads import build as build_workload

#: ``(family, endpoints, params)`` checked over every ordered pair.
SMALL = [
    ("torus", 64, {}),                                  # 4x4x4: wrap ties
    ("torus", 64, {"dims": (4, 16)}),
    ("torus", 60, {"dims": (3, 5, 4)}),                 # odd radices
    ("torus", 64, {"dims": (2, 2, 16)}),                # radix-2 wraps
    ("torus", 64, {"dims": (4, 2, 8), "wraparound": False}),  # mesh
    ("fattree", 64, {}),
    ("fattree", 64, {"arities": (8, 8)}),
    ("ghc", 64, {}),
    ("ghc", 64, {"ports_per_switch": 4}),
    ("thintree", 64, {}),
    ("dragonfly", 72, {}),
    ("jellyfish", 64, {}),
    ("nesttree", 64, {"t": 1, "u": 1}),
    ("nestghc", 64, {"t": 1, "u": 1}),
] + [(family, 64, {"t": t, "u": u})
     for family in ("nesttree", "nestghc")
     for t in (2, 4) for u in (1, 2, 4, 8)]

#: Vectorised families checked on random pairs at 4,096 endpoints.
LARGE = [("torus", {}), ("fattree", {}), ("ghc", {}),
         ("nesttree", {"t": 2, "u": 4}), ("nesttree", {"t": 8, "u": 1}),
         ("nesttree", {"t": 4, "u": 8}), ("nestghc", {"t": 2, "u": 8}),
         ("nestghc", {"t": 4, "u": 2}), ("nestghc", {"t": 8, "u": 4})]


def scalar_csr(topo, src, dst):
    rows = [topo.route(s, d) for s, d in zip(src.tolist(), dst.tolist())]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    return indptr, np.asarray([x for r in rows for x in r], dtype=np.int64)


def assert_rows_equal(topo, src, dst):
    indptr, links = topo.routes(src, dst)
    assert indptr.dtype == np.int64 and links.dtype == np.int64
    want_ptr, want = scalar_csr(topo, src, dst)
    np.testing.assert_array_equal(indptr, want_ptr)
    np.testing.assert_array_equal(links, want)


def all_pairs(n):
    src, dst = np.divmod(np.arange(n * n, dtype=np.int64), n)
    return src, dst


def test_every_family_is_covered():
    assert {family for family, _, _ in SMALL} == set(available())


@pytest.mark.parametrize("family,endpoints,params", SMALL,
                         ids=[f"{f}-{n}-{p}" for f, n, p in SMALL])
def test_routes_equal_route_for_every_pair(family, endpoints, params):
    topo = build(family, endpoints, **params)
    assert_rows_equal(topo, *all_pairs(topo.num_endpoints))


@pytest.mark.parametrize("family", ["torus", "nesttree", "nestghc"])
def test_degraded_routes_use_the_base_loop(family):
    params = {"t": 2, "u": 2} if family.startswith("nest") else {}
    topo = build(family, 64, **params)
    deg = DegradedTopology(topo, FaultSet.sample(
        topo, cables=2, uplinks=2 if params else 0, seed=3))
    src, dst = all_pairs(topo.num_endpoints)
    keep = [i for i, (s, d) in enumerate(zip(src.tolist(), dst.tolist()))
            if _routable(deg, s, d)]
    assert len(keep) > 0.9 * src.shape[0]
    assert_rows_equal(deg, src[keep], dst[keep])


def _routable(topo, s, d):
    try:
        topo.route(s, d)
    except DegradedNetworkError:
        return False
    return True


@pytest.mark.parametrize("family,params", LARGE,
                         ids=[f"{f}-{p}" for f, p in LARGE])
def test_routes_equal_route_on_random_pairs(family, params):
    topo = build(family, 4096, **params)
    rng = np.random.default_rng(20_000)
    src = rng.integers(0, topo.num_endpoints, 20_000)
    dst = rng.integers(0, topo.num_endpoints, 20_000)
    assert_rows_equal(topo, src, dst)


class TestInputs:
    @pytest.mark.parametrize("family", ["torus", "fattree", "ghc",
                                        "nesttree", "dragonfly"])
    def test_out_of_range_endpoints_raise(self, family):
        params = {"t": 2, "u": 2} if family == "nesttree" else {}
        topo = build(family, 72 if family == "dragonfly" else 64, **params)
        n = topo.num_endpoints
        ok = np.array([0, 1])
        for bad in (np.array([0, n]), np.array([-1, 0])):
            with pytest.raises(RoutingError, match="out of range"):
                topo.routes(bad, ok)
            with pytest.raises(RoutingError, match="out of range"):
                topo.routes(ok, bad)

    def test_shape_mismatch_raises(self):
        topo = build("torus", 64)
        with pytest.raises(RoutingError):
            topo.routes(np.array([0, 1]), np.array([2]))

    def test_empty_batch(self):
        indptr, links = build("nesttree", 64, t=2, u=2).routes(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert indptr.tolist() == [0] and links.shape == (0,)

    def test_ids_of_matches_id_of_and_rejects_absent_links(self):
        table = build("nestghc", 64, t=2, u=4).links
        src, dst = table.sources, table.destinations
        np.testing.assert_array_equal(table.ids_of(src, dst),
                                      np.arange(table.num_links))
        u, v = int(src[0]), int(dst[0])
        assert not table.has(v, v)
        with pytest.raises(TopologyError, match=f"no link {v} -> {v}"):
            table.ids_of(np.array([u, v]), np.array([v, v]))
        with pytest.raises(TopologyError):
            table.ids_of(np.array([-1]), np.array([v]))


def _flows_view(topo, src, dst, cache=None, collector=None):
    """A :class:`ViewRoutes` over the pairs of the flows ``src -> dst``
    and each flow's pair index."""
    pairs, pair_of_flow = flow_pairs(np.asarray(src), np.asarray(dst),
                                     topo.num_endpoints)
    store = RouteCache.of(cache)
    return store, ViewRoutes(store, topo, pairs, collector), pair_of_flow


class TestRouteCache:
    def test_batched_fill_serves_scalar_lookups(self, monkeypatch):
        topo = build("nesttree", 64, t=2, u=4)
        rng = np.random.default_rng(1)
        src_ep = rng.integers(0, 64, 300)
        dst_ep = rng.integers(0, 64, 300)
        dst_ep[:5] = src_ep[:5]                       # zero-hop flows
        src_ep[5:10], dst_ep[5:10] = 3, 40           # one repeated pair
        store = RouteCache()
        pairs = flow_pairs(src_ep, dst_ep, 64)
        route_of, routes_of = _make_route_fn(topo, src_ep, dst_ep, store,
                                             None, "deterministic",
                                             pairs=pairs)
        fids = np.flatnonzero(src_ep != dst_ep)     # network flows only
        lens, links = routes_of(fids)
        rows = dict(zip(fids.tolist(), np.split(links, np.cumsum(lens)[:-1])))
        # repeats are deduped: one row per distinct pair, zero-hop none
        distinct = {(s, d) for s, d in zip(src_ep.tolist(), dst_ep.tolist())
                    if s != d}
        assert len(store) == len(distinct) == pairs[0].shape[0]
        assert not store._candidate_arenas
        want = {f: topo_route(topo, int(src_ep[f]), int(dst_ep[f]))
                for f in range(300)}
        # hits do no routing
        monkeypatch.setattr(type(topo), "route", _explode)
        monkeypatch.setattr(type(topo), "routes", _explode)
        for f in range(300):
            s, d = int(src_ep[f]), int(dst_ep[f])
            got = route_of(f)
            assert got.dtype == np.int64
            if s == d:
                assert got is simulator._EMPTY_ROUTE
            else:
                assert got.tolist() == rows[f].tolist() == want[f]
        assert all(np.shares_memory(route_of(5), route_of(f))
                   for f in range(6, 10))

    def test_degraded_keys_carry_the_fault_token(self):
        topo = build("torus", 64)
        deg = DegradedTopology(topo, FaultSet.sample(topo, cables=1, seed=0))
        token = deg.faults.cache_token()
        store, view, pof = _flows_view(deg, [0, 5], [9, 63])
        view.rows(pof)
        assert set(store._arenas) == {token} and len(store) == 2
        # through a plain dict, the written-back keys carry the token
        cache: dict = {}
        _, view, pof = _flows_view(deg, [0, 5], [9, 63], cache)
        view.rows(pof)
        assert set(cache) == {(0, 9, token), (5, 63, token)}

    def test_chunks_route_missing_pairs_in_first_appearance_order(
            self, monkeypatch):
        topo = build("torus", 64)
        calls = []
        inner = type(topo).routes

        def spy(self, src, dst):
            calls.append(list(zip(src.tolist(), dst.tolist())))
            return inner(self, src, dst)
        monkeypatch.setattr(type(topo), "routes", spy)
        monkeypatch.setattr(routes_mod, "ROUTE_CHUNK", 2)
        store = RouteCache()
        _flows_view(topo, [7], [1], store)[1].rows(np.array([0]))
        calls.clear()
        src = np.array([9, 7, 2, 9, 0, 5])
        dst = np.array([3, 1, 8, 3, 0, 6])
        _, view, pof = _flows_view(topo, src, dst, store)
        lens, links = view.gather(view.rows(pof[pof >= 0]))
        assert calls == [[(9, 3), (2, 8)], [(5, 6)]]
        assert pof[4] == -1 and len(store) == 4
        got = np.split(links, np.cumsum(lens)[:-1])
        assert [r.tolist() for r in got] == [
            topo_route(topo, s, d) for s, d in zip(src.tolist(),
                                                   dst.tolist()) if s != d]

    def test_mixed_batch_hits_misses_repeats_and_zero_hop(self):
        topo = build("torus", 64)

        class Timer:
            def __init__(self):
                self.calls = []

            def add_time(self, name, seconds):
                self.calls.append(name)

        hit = np.asarray(topo.route(4, 17), dtype=np.int64)
        cache = {(4, 17): hit}
        #        hit     miss    zero   miss    hit     miss    zero
        src = np.array([4, 9, 2, 30, 4, 9, 6])
        dst = np.array([17, 3, 2, 11, 17, 3, 6])
        timer = Timer()
        _, view, pof = _flows_view(topo, src, dst, cache, timer)
        lens, links = view.gather(view.rows(pof[pof >= 0]))
        assert timer.calls == ["route_construction"]
        # the plain dict is seeded from, and filled under the pair keys;
        # zero-hop pairs are not cached
        assert set(cache) == {(4, 17), (9, 3), (30, 11)}
        assert cache[(4, 17)] is hit
        got = np.split(links, np.cumsum(lens)[:-1])
        for r, s, d in zip(got, src[pof >= 0].tolist(),
                           dst[pof >= 0].tolist()):
            assert r.tolist() == topo_route(topo, s, d)
            assert cache[(s, d)].tolist() == r.tolist()

        # the same batch again, on a store, is all hits: nothing is
        # routed, and nothing is timed
        timer = Timer()
        store, view, pof = _flows_view(topo, src, dst, None, timer)
        view.rows(pof[pof >= 0])
        assert timer.calls == ["route_construction"]
        view = ViewRoutes(store, topo, view.pairs, timer)
        assert (view.pair_row >= 0).all()
        again = view.gather(view.rows(pof[pof >= 0]))
        assert timer.calls == ["route_construction"]
        np.testing.assert_array_equal(again[0], lens)
        np.testing.assert_array_equal(again[1], links)

    def test_analyze_fills_the_simulator_keys(self):
        topo = build("fattree", 64)
        flows = build_workload("allreduce", 64).build()
        cache: dict = {}
        analyze(topo, flows, route_cache=cache)
        assert cache and all(
            isinstance(k, tuple) and len(k) == 2 and type(k[0]) is int
            and v.dtype == np.int64 and v.tolist() == topo.route(*k)
            for k, v in cache.items())
        warm = simulate(topo, flows, fidelity="approx", route_cache=cache)
        cold = simulate(topo, flows, fidelity="approx")
        assert warm.makespan == cold.makespan


def topo_route(topo, s, d):
    return topo.route(s, d) if s != d else []


def _explode(self, *args):
    raise AssertionError(f"routed a stored pair: {args}")


def test_tied_uplinks_are_built_on_first_use():
    plan = SubtorusPlan(4, 4)
    assert "tied_uplinks" not in vars(plan)
    ties = plan.tied_uplinks
    assert plan.tied_uplinks is ties
    assert all(t[0] == plan.designated[local] for local, t in enumerate(ties))
