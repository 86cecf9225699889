"""The route store: CSR arenas of deterministic routes per topology view.

A :class:`~repro.engine.routes.RouteCache` must hand back, row for row,
what ``Topology.route`` returns, whatever order and chunking the pairs
arrive in; report a disconnected pair as the per-pair walk does; route
nothing it already holds; and keep the plain-dict route cache contract
(the same keys and values a dict held before the store existed).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.engine import FlowBuilder, RouteCache, analyze, simulate
from repro.engine import routes as routes_mod
from repro.engine.routes import ViewCandidates, ViewRoutes, flow_pairs
from repro.errors import DegradedNetworkError
from repro.topology import (DegradedTopology, FaultSet, TorusTopology,
                            build, degrade, registry)
from repro.workloads import build as build_workload

ENDPOINTS = 512


def _machines():
    for family in registry.available():
        params = {"t": 2, "u": 4} if family.startswith("nest") else {}
        yield family, build(family, ENDPOINTS, **params)
    yield "nesttree-degraded", degrade(build("nesttree", ENDPOINTS, t=2, u=4),
                                       cables=8, uplinks=4, seed=3)


def _routable(topo, s, d) -> bool:
    try:
        topo.route(s, d)
    except DegradedNetworkError:
        return False
    return True


@pytest.mark.parametrize("name,topo", list(_machines()),
                         ids=[name for name, _ in _machines()])
def test_gathered_rows_equal_route_in_any_chunk_order(name, topo,
                                                      monkeypatch):
    """Seeded pair batches, cut into random chunks taken in random order
    and routed a few pairs per ``Topology.routes`` call: every gathered
    row is ``Topology.route``'s, and every pair is stored once."""
    monkeypatch.setattr(routes_mod, "ROUTE_CHUNK", 7)
    rng = np.random.default_rng(512)
    src = rng.integers(0, ENDPOINTS, 600)
    dst = rng.integers(0, ENDPOINTS, 600)
    src[:40], dst[:40] = src[40:80], dst[40:80]      # repeated pairs
    keep = [i for i, (s, d) in enumerate(zip(src.tolist(), dst.tolist()))
            if s != d and _routable(topo, s, d)]
    src, dst = src[keep], dst[keep]
    pairs, pair_of_flow = flow_pairs(src, dst, ENDPOINTS)
    store = RouteCache()
    flows = rng.permutation(src.shape[0])
    cuts = np.sort(rng.choice(np.arange(1, flows.shape[0]), 9,
                              replace=False))
    for i, chunk in enumerate(np.split(flows, cuts)):
        # a fresh view every other chunk: the index must find the rows
        # the previous views appended
        if i % 2 == 0:
            view = ViewRoutes(store, topo, pairs)
        lens, links = view.gather(view.rows(pair_of_flow[chunk]))
        rows = np.split(links, np.cumsum(lens)[:-1])
        for f, row in zip(chunk.tolist(), rows):
            assert row.tolist() == topo.route(int(src[f]), int(dst[f]))
    assert len(store) == pairs.shape[0]
    assert (ViewRoutes(store, topo, pairs).pair_row >= 0).all()


@pytest.mark.parametrize("name,topo", list(_machines()),
                         ids=[name for name, _ in _machines()])
def test_candidate_blocks_equal_route_candidates(name, topo, monkeypatch):
    """Candidate blocks filled a few pairs per ``candidate_routes`` call,
    chunks taken in random order and through fresh views: every block is
    ``route_candidates``' list, row for row, and every pair is stored
    once."""
    monkeypatch.setattr(routes_mod, "CANDIDATE_CHUNK", 5)
    rng = np.random.default_rng(64)
    src = rng.integers(0, ENDPOINTS, 150)
    dst = rng.integers(0, ENDPOINTS, 150)
    keep = [i for i, (s, d) in enumerate(zip(src.tolist(), dst.tolist()))
            if s != d and _routable(topo, s, d)]
    src, dst = src[keep], dst[keep]
    pairs, pair_of_flow = flow_pairs(src, dst, ENDPOINTS)
    store = RouteCache()
    for i, chunk in enumerate(np.array_split(rng.permutation(src.shape[0]),
                                             6)):
        if i % 2 == 0:
            view = ViewCandidates(store, topo, pairs)
        first, count = view.blocks(pair_of_flow[chunk])
        for f, a, k in zip(chunk.tolist(), first.tolist(), count.tolist()):
            lens, links = view.gather(np.arange(a, a + k))
            assert [r.tolist() for r in np.split(links, np.cumsum(lens)[:-1])] \
                == topo.route_candidates(int(src[f]), int(dst[f]))
    view = ViewCandidates(store, topo, pairs)
    assert (view.pair_count > 0).all() and len(store) == 0
    arena = store._candidate_arenas[routes_mod.cache_token(topo)]
    assert arena.rows == view.pair_count.sum()


@pytest.mark.parametrize("routing", ["ecmp", "adaptive"])
def test_second_multipath_simulate_routes_nothing(routing, monkeypatch):
    topo = build("nesttree", 64, t=2, u=2)
    flows = build_workload("unstructuredhr", 64, seed=0).build()
    store = RouteCache()
    first = simulate(topo, flows, fidelity="approx", route_cache=store,
                     routing=routing)
    rows = store._candidate_arenas[None].rows
    monkeypatch.setattr(type(topo), "candidate_routes", _explode)
    again = simulate(topo, flows, fidelity="approx", route_cache=store,
                     routing=routing)
    assert again.makespan == first.makespan and again.events == first.events
    assert store._candidate_arenas[None].rows == rows > 0


class TestDisconnectedPairs:
    @staticmethod
    def machine():
        """A 4x4 torus with endpoint 0 cut off."""
        topo = TorusTopology((4, 4))
        nic_base = topo.num_endpoints + topo.num_switches
        cut = frozenset(
            lid for lid in range(topo.links.num_links)
            if 0 in topo.links.endpoints_of(lid)
            and max(topo.links.endpoints_of(lid)) < nic_base)
        return DegradedTopology(topo, FaultSet(cut))

    #: flows in admission order: two routable pairs, then the first cut
    #: pair, a routable one, and two more cut pairs
    SRC = [1, 6, 3, 2, 0, 3]
    DST = [5, 9, 0, 7, 5, 0]

    @pytest.mark.parametrize("chunk", [1, 2, 65_536])
    def test_store_names_the_first_cut_pair(self, chunk, monkeypatch):
        monkeypatch.setattr(routes_mod, "ROUTE_CHUNK", chunk)
        deg = self.machine()
        first = next((s, d) for s, d in zip(self.SRC, self.DST)
                     if not _routable(deg, s, d))
        src, dst = np.array(self.SRC), np.array(self.DST)
        pairs, pof = flow_pairs(src, dst, deg.num_endpoints)
        with pytest.raises(DegradedNetworkError) as exc:
            ViewRoutes(RouteCache(), deg, pairs).rows(pof)
        assert exc.value.pairs == [first] == [(3, 0)]

    def test_simulate_names_the_first_cut_pair(self):
        deg = self.machine()
        b = FlowBuilder(deg.num_endpoints)
        for s, d in zip(self.SRC, self.DST):
            b.add_flow(s, d, 1e6)
        for cache in (RouteCache(), {}):
            with pytest.raises(DegradedNetworkError) as exc:
                simulate(deg, b.build(), route_cache=cache)
            assert exc.value.pairs == [(3, 0)]


def _explode(self, *args):
    raise AssertionError(f"routed a stored pair: {args}")


@pytest.mark.parametrize("fidelity", ["exact", "approx"])
def test_second_simulate_routes_nothing(fidelity, monkeypatch):
    topo = build("nesttree", 64, t=2, u=4)
    flows = build_workload("unstructuredhr", 64, seed=0).build()
    store = RouteCache()
    first = simulate(topo, flows, fidelity=fidelity, route_cache=store)
    rows = len(store)
    monkeypatch.setattr(type(topo), "route", _explode)
    monkeypatch.setattr(type(topo), "routes", _explode)
    again = simulate(topo, flows, fidelity=fidelity, route_cache=store)
    assert again.makespan == first.makespan and again.events == first.events
    assert analyze(topo, flows, route_cache=store).loads.sum() > 0
    assert len(store) == rows


def test_route_cache_run_leaves_no_pair_keyed_entries():
    """A store keeps every route in its arenas, one of each kind per
    fault token: deterministic runs fill no candidate arena, and an ECMP
    run fills the healthy candidate arena and no deterministic row."""
    topo = build("nesttree", 64, t=2, u=4)
    flows = build_workload("unstructuredhr", 64, seed=0).build()
    store = RouteCache()
    simulate(topo, flows, fidelity="approx", route_cache=store)
    analyze(topo, flows, route_cache=store)
    simulate(degrade(topo, cables=4, seed=1), flows, fidelity="approx",
             route_cache=store)
    assert not store._candidate_arenas
    rows = len(store)
    simulate(topo, flows, fidelity="approx", routing="ecmp",
             route_cache=store)
    assert set(store._candidate_arenas) == {None}
    assert store._candidate_arenas[None].rows > 0 and len(store) == rows


def _dict_digest(cache: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(cache, key=repr):
        h.update(repr(key).encode())
        value = cache[key]
        for arr in (value if isinstance(value, list) else [value]):
            h.update(f"{arr.dtype.str}:{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _fill(case: str) -> dict:
    topo = build("nesttree", 128, t=2, u=4)
    hr = build_workload("unstructuredhr", 128, seed=0).build()
    allreduce = build_workload("allreduce", 128, seed=0).build()
    cache: dict = {}
    if case == "analyze":
        analyze(topo, allreduce, route_cache=cache)
    elif case == "degraded":
        simulate(degrade(build("torus", 128), cables=8, seed=3), allreduce,
                 fidelity="approx", route_cache=cache)
    elif case == "colocated":
        simulate(topo, hr, placement=np.arange(128) % 64, fidelity="approx",
                 route_cache=cache)
    else:
        simulate(topo, hr, fidelity="approx", route_cache=cache,
                 routing="ecmp" if case == "ecmp" else "deterministic")
    return cache


#: case -> (entries, sha256 over the sorted keys and their values) of a
#: plain dict route cache, as the dict-based engine left it.
PLAIN_DICT = {
    "analyze": (896, "bb11cf1f05c701983a629d42d3eea719e44efd1cb24eb9b081a72f"
                     "39622c23ab"),
    "simulate": (914, "2639df34428714c77c2c06070e0f01d628dc0530abd765d46df55"
                      "9ae5d5516c2"),
    "ecmp": (914, "f9dda84a8743cae456431aed138f706fe0b65e0951b3e6b667478a56b"
                  "666655f"),
    "degraded": (896, "83181b37c99f59c728f827bec998cd9975254c4668cb8ba8cbb6bf"
                      "6c1e49528b"),
    "colocated": (748, "9cf6a436fe86d98356f1132b4a09c24052a7b55d61195a2c56ca6"
                       "7735806a2e0"),
}


@pytest.mark.parametrize("case", list(PLAIN_DICT))
def test_plain_dict_keeps_its_keys_and_values(case):
    cache = _fill(case)
    assert (len(cache), _dict_digest(cache)) == PLAIN_DICT[case]
