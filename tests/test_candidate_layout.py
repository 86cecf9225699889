"""Candidate routes from the wiring layout, held to the walk oracle.

:meth:`~repro.topology.base.Topology.candidate_routes` computes every
minimal route of a batch of pairs from the layout in which each family
registers its links.  Here every family with routing freedom is compared,
route for route and in order, with the per-pair walk enumerators of
``tests/walk_oracle.py`` over every pair of a small machine (a seeded
sample where the machine is large enough to hit the candidate cap).  On
healthy machines the batch must also run with the link lookup
(``LinkTable.ids_of``) disabled: no hop is found by a search.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DegradedNetworkError
from repro.topology import build, degrade
from repro.topology.base import MAX_ROUTE_CANDIDATES
from repro.topology.fattree import FatTreeTopology
from repro.topology.ghc import GHCTopology
from repro.topology.linktable import LinkTable
from repro.topology.thintree import ThinTreeTopology
from repro.topology.torus import TorusTopology
from tests import walk_oracle

#: name -> (builder, sampled pairs or None for all pairs)
HEALTHY = {
    "torus-4x4x4": (lambda: TorusTopology((4, 4, 4)), None),
    "torus-radix2-odd": (lambda: TorusTopology((2, 4, 6)), None),
    "torus-odd": (lambda: TorusTopology((3, 5, 3)), None),
    "torus-radix2": (lambda: TorusTopology((2, 2, 2, 2)), None),
    "mesh": (lambda: TorusTopology((3, 4, 2), wraparound=False), None),
    "fattree": (lambda: FatTreeTopology((4, 4, 2)), None),
    "fattree-cap": (lambda: FatTreeTopology((9, 9, 2)), 600),
    "thintree": (lambda: ThinTreeTopology((4, 4, 2), (2, 3)), None),
    "thintree-odd": (lambda: ThinTreeTopology((3, 3, 3), (2, 3)), None),
    "ghc": (lambda: GHCTopology((3, 4, 2), 2), None),
    "ghc-cap": (lambda: GHCTopology((2, 2, 2, 2, 2), 1), None),
    "nesttree-2-2": (lambda: build("nesttree", 64, t=2, u=2), None),
    "nesttree-4-4": (lambda: build("nesttree", 128, t=4, u=4), 2000),
    "nesttree-4-8-cap": (lambda: build("nesttree", 512, t=4, u=8), 600),
    "nestghc-2-2": (lambda: build("nestghc", 64, t=2, u=2), None),
    "nestghc-4-2": (lambda: build("nestghc", 512, t=4, u=2), 1000),
    "nestghc-4-4-filter": (lambda: build("nestghc", 128, t=4, u=4), 2000),
}

DEGRADED = {
    "nesttree": (lambda: degrade(build("nesttree", 64, t=2, u=2), cables=6,
                                 uplinks=3, seed=3), None),
    "nestghc": (lambda: degrade(build("nestghc", 64, t=2, u=2), cables=4,
                                uplinks=2, seed=5), None),
    "torus": (lambda: degrade(TorusTopology((4, 4, 4)), cables=8, seed=1),
              None),
    "fattree": (lambda: degrade(FatTreeTopology((4, 4, 4)), cables=8,
                                seed=2), None),
    "ghc-cap": (lambda: degrade(GHCTopology((2, 2, 2, 2, 2), 1), cables=6,
                                seed=3), None),
}


def _pairs(topo, sample):
    n = topo.num_endpoints
    if sample is None:
        src, dst = np.divmod(np.arange(n * n), n)
    else:
        rng = np.random.default_rng(7)
        src, dst = rng.integers(0, n, sample), rng.integers(0, n, sample)
    return src, dst


def _routable(topo, src, dst):
    keep = []
    for s, d in zip(src.tolist(), dst.tolist()):
        try:
            topo.route(s, d)
        except DegradedNetworkError:
            keep.append(False)
        else:
            keep.append(True)
    return src[keep], dst[keep]


def _batch(topo, src, dst):
    pair_ptr, indptr, links = topo.candidate_routes(src, dst)
    flat, bounds = links.tolist(), indptr.tolist()
    routes = [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return [routes[lo:hi] for lo, hi in zip(pair_ptr.tolist(),
                                            pair_ptr[1:].tolist())]


def _refuse(*args, **kwargs):
    raise AssertionError("a candidate hop was found by a link lookup")


@pytest.mark.parametrize("name", list(HEALTHY))
def test_healthy_batch_matches_walk_oracle(name, monkeypatch):
    make, sample = HEALTHY[name]
    topo = make()
    src, dst = _pairs(topo, sample)
    want = [walk_oracle.route_candidates(topo, s, d)
            for s, d in zip(src.tolist(), dst.tolist())]
    monkeypatch.setattr(LinkTable, "ids_of", _refuse)
    got = _batch(topo, src, dst)
    assert got == want
    det_ptr, det = topo.routes(src, dst)
    assert [c[0] for c in got] == [det[lo:hi].tolist() for lo, hi in
                                   zip(det_ptr[:-1], det_ptr[1:])]


def test_torus_cap():
    """Seven tied dimensions give 128 minimal walks: the batch keeps the
    first 64 in product order."""
    topo = TorusTopology((4,) * 7)
    src = np.arange(0, topo.num_endpoints, 97)
    dst = src ^ int("10" * 7, 2)            # +2 in every dimension
    want = [walk_oracle.route_candidates(topo, s, d)
            for s, d in zip(src.tolist(), dst.tolist())]
    assert all(len(c) == MAX_ROUTE_CANDIDATES for c in want)
    assert _batch(topo, src, dst) == want


@pytest.mark.parametrize("name", [n for n in HEALTHY if n.endswith("cap")])
def test_cap_binds(name, monkeypatch):
    """The cap cases really truncate: some pair has more minimal walks
    than the cap, and the batch keeps the first ``MAX`` of them."""
    make, sample = HEALTHY[name]
    topo = make()
    src, dst = _pairs(topo, sample)
    monkeypatch.setattr(walk_oracle, "MAX_ROUTE_CANDIDATES", 1 << 30)
    longest = max(len(walk_oracle.vertex_walks(topo, s, d))
                  for s, d in zip(src.tolist(), dst.tolist()))
    assert longest > MAX_ROUTE_CANDIDATES
    assert max(map(len, _batch(topo, src, dst))) == MAX_ROUTE_CANDIDATES


def test_hybrid_length_filter_drops_combinations():
    """On ``nestghc(4, 4)`` some tied exit/entry combination has a longer
    fabric walk than the designated one: the filter drops it, so the
    ``nestghc-4-4-filter`` case above covers it."""
    topo = build("nestghc", 128, t=4, u=4)
    src, dst = _pairs(topo, 300)
    dropped = 0
    for s, d in zip(src.tolist(), dst.tolist()):
        if topo.subtorus_of(s) == topo.subtorus_of(d):
            continue
        det = len(topo.vertex_path(s, d))
        for us in topo.tied_uplinks_of(s):
            for ud in topo.tied_uplinks_of(d):
                body = topo.fabric.port_path(topo.port_of(us),
                                             topo.port_of(ud))
                up = len(topo._local_path(s, us))
                down = len(topo._local_path(ud, d))
                dropped += up + len(body) + down != det
    assert dropped


@pytest.mark.parametrize("name", list(DEGRADED))
def test_degraded_batch_matches_walk_oracle(name):
    make, sample = DEGRADED[name]
    topo = make()
    src, dst = _routable(topo, *_pairs(topo, sample))
    want = [walk_oracle.route_candidates(topo, s, d)
            for s, d in zip(src.tolist(), dst.tolist())]
    got = _batch(topo, src, dst)
    assert got == want
    mask = topo.disabled_link_mask()
    assert not any(mask[r].any() for cands in got for r in cands)


def test_degraded_batch_names_the_first_cut_pair():
    topo = degrade(FatTreeTopology((4, 4, 4)), cables=8, seed=2)
    src, dst = _pairs(topo, None)
    cut = next((s, d) for s, d in zip(src.tolist(), dst.tolist())
               if not _routable(topo, np.array([s]), np.array([d]))[0].size)
    with pytest.raises(DegradedNetworkError) as exc:
        topo.candidate_routes(src, dst)
    assert exc.value.pairs == [cut]


@pytest.mark.parametrize("family,params", [
    ("torus", {}), ("fattree", {}), ("nesttree", {"t": 2, "u": 4}),
    ("nestghc", {"t": 4, "u": 2}), ("dragonfly", {}), ("jellyfish", {})])
def test_batch_rows_do_not_depend_on_the_batch(family, params):
    """A pair's candidates are the same alone and in any batch."""
    topo = build(family, 512, **params)
    src, dst = _pairs(topo, 300)
    whole = _batch(topo, src, dst)
    order = np.random.default_rng(3).permutation(src.shape[0])
    for part in np.array_split(order, 7):
        assert _batch(topo, src[part], dst[part]) == [whole[i] for i in part]
    assert _batch(topo, src[:1], dst[:1]) == whole[:1]
