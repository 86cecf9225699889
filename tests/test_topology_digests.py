"""Bitwise goldens of every registered topology family's link table and
of a fixed sample of its routes.

Each case pins one sha256 over the link table's ``(sources,
destinations, capacities)`` arrays (dtype, shape and bytes), the
deterministic routes of a seeded sample of endpoint pairs through
:meth:`~repro.topology.base.Topology.routes`, and every candidate route
of a shorter prefix of that sample through
:meth:`~repro.topology.base.Topology.route_candidates`.  Link ids are
positions in the table, so a build that emits the same links in another
order fails here, as does any change to a routing rule.

Every family is pinned at 512 endpoints and at 384 (not a power of two),
plus the torus and mesh edge cases of the neighbour order (radix-2 and
radix-1 dimensions) and four fault-degraded machines, whose candidate
filter reads the same link lookups.

To print the digests of the current tree::

    PYTHONPATH=src python tests/test_topology_digests.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.topology import build, degrade
from repro.topology import registry

#: Sampled pairs per case: all go through ``routes``, the first
#: ``CANDIDATE_PAIRS`` also through ``route_candidates``.
ROUTE_PAIRS = 256
CANDIDATE_PAIRS = 48


def _update(h, name: str, arr: np.ndarray) -> None:
    h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
    h.update(np.ascontiguousarray(arr).tobytes())


def topology_digest(topo, seed: int = 0) -> str:
    links = topo.links
    h = hashlib.sha256(topo.describe().encode())
    _update(h, "sources", links.sources)
    _update(h, "destinations", links.destinations)
    _update(h, "capacities", links.capacities)
    rng = np.random.default_rng(seed)
    n = topo.num_endpoints
    src = rng.integers(0, n, ROUTE_PAIRS)
    dst = rng.integers(0, n, ROUTE_PAIRS)
    dst[::16] = src[::16]                  # a few self pairs
    indptr, route_links = topo.routes(src, dst)
    _update(h, "route_indptr", indptr)
    _update(h, "route_links", route_links)
    for s, d in zip(src[:CANDIDATE_PAIRS].tolist(),
                    dst[:CANDIDATE_PAIRS].tolist()):
        cands = topo.route_candidates(s, d)
        _update(h, "lengths", np.asarray([len(c) for c in cands],
                                         dtype=np.int64))
        for cand in cands:
            _update(h, "candidate", np.asarray(cand, dtype=np.int64))
    return h.hexdigest()


#: (family, endpoints, params) -> digest.
DIGESTS: dict[tuple[str, int, tuple[tuple[str, object], ...]], str] = {
    ('torus', 512, ()):
        '01f443ae2f0115742f6693c1b96e2f99f30295c9d78beabfcc44c778cfc61c6d',
    ('fattree', 512, ()):
        'b285060259e2365adb6ee2271f0db75c455fff1b8422a4e9e4c9c92b7f443785',
    ('thintree', 512, ()):
        'c48e6619e9105fc52f62ce8f1d6e15c97004b8531cabf2d51a49a8c3f6b7c091',
    ('ghc', 512, ()):
        'ce5a80cd56eeffe5f31c0fcddb9f5f44575567577fa52c04a2411f719caebc14',
    ('dragonfly', 512, ()):
        '1387e9628880332997606b4aeab003dff1e8e72a452494e0b0c1241776dee9c1',
    ('jellyfish', 512, ()):
        'b63d62e78f5d19486b63979a9a62605be813a7084323b5a2984f0673c1d66224',
    ('torus', 512, (('wraparound', False),)):
        '4eb7f574076c5a5c923e42cb8c90772106af27016e5115485a18b82bac0d7628',
    ('nesttree', 512, (('t', 2), ('u', 4))):
        'abbc0adc4ea58339bd8d4a94e778ef5f205ab224570f0b8cb53704dd676a65c2',
    ('nesttree', 512, (('t', 4), ('u', 8))):
        'ecac7b7c3dcc81a65223633402342c658337caa57ff9940e361ae2335b0f92ac',
    ('nestghc', 512, (('t', 2), ('u', 4))):
        'b915d434f3452d896b1c582d0c32fbb70275e0d77f404224a4f8dd87e9e684f2',
    ('nestghc', 512, (('t', 4), ('u', 2))):
        'b0ec818f258dd09e746947e84958f492635f685728f18c6107d6227f3b98e015',
    ('torus', 384, ()):
        '3018653005db721a5a261113b8f19d06e4effb3fcaa143d6c3239833ca1a6c70',
    ('fattree', 384, ()):
        '15f2be00e197169a0f769439bbb8b19f3a2282dc8826f13d91516858606bc14d',
    ('thintree', 384, ()):
        '10d59e8aafa52493368e46db50a9c38bf45df845c96e74a3f1695b5b63ff7e24',
    ('ghc', 384, ()):
        '7f4eb83a411bacefcd52ce14b13901ef39021c6fa08da56a6af25ed38457c13e',
    ('dragonfly', 384, ()):
        '0cfec9745e9431716631bdeb11a1e5ddcbce0eb0d62c134e2688d4e3251daacd',
    ('jellyfish', 384, ()):
        'e449c1b120be5decf3b701b49155673d031039359d3b1fa5158e78491e313f50',
    ('torus', 384, (('wraparound', False),)):
        '434bcc81f2c9ad69cbc238b92ff02331c15c9a39b7f279f7e3342fe1cb5e4f1a',
    ('nesttree', 384, (('t', 2), ('u', 4))):
        '47da2aa61ed5e9945dd851557007b87a4735086da69c587909a00372a7ccf547',
    ('nesttree', 384, (('t', 4), ('u', 8))):
        '11dd59f7f9365cd72455505fc411be1045ba9bf4a1914c32c4b3ee68596b376f',
    ('nestghc', 384, (('t', 2), ('u', 4))):
        'dbffb77d99bd0fa7f7004891702a83a2873307174b96d8f20af77e700674ff6f',
    ('nestghc', 384, (('t', 4), ('u', 2))):
        '283296216b3216beb5c56a22da7aab5123088a280fac0dcaebcc9cd8f4422de9',
    ('nesttree', 512, (('t', 2), ('u', 1))):
        'f03464995b1486b5a9d285c115c4e0afc8cb005e5f31515d67cf55f2c9697eb6',
    ('nesttree', 512, (('t', 2), ('u', 2))):
        '2cd73ad20519da1756018eca07dc894e7907ac1f7e34922958fd812bbe223977',
    ('nestghc', 512, (('t', 2), ('u', 8))):
        '8d3be267bedfb387377d0bacf4387cf7b52e419f183d992c83bfefdc1a6b4e1b',
    ('thintree', 512, (('oversubscription', 4),)):
        '44f50622810ca6ac6b16a5c87e3c249507fba40dbf72d065ed90d499748f0be5',
    ('dragonfly', 512, (('valiant', True),)):
        '76aa815d7c9d52e3c7db29098c0f840bcc19e7f8d38ce8573300a5e7257d2442',
    ('torus', 512, (('dims', (2, 16, 16)),)):
        '05ad0ed50acfda8333f22bf526ab44d35d4a7d4c67986b132d277c64ced56f12',
    ('torus', 64, (('dims', (2, 4, 8)), ('wraparound', False))):
        '80e2b2612eb64707b60a9ace49705d9af1b02486622ac2a8458d8bafae5733b5',
    ('torus', 24, (('dims', (1, 4, 6)),)):
        '0c503e79e18f49aeebc690869e9fab0159bf9c6ec1693fdf75a2ce0c362eec86',
    ('torus', 6, (('dims', (3, 2, 1)),)):
        '4e589dbef11ffc3b4d71a1ba693572e28a3757cec2556b6f8b72ec8826364969',
    ('torus', 6, (('dims', (1, 2, 3)), ('wraparound', False))):
        'f07205d77fc084eb5fe6e3d76737c602610bd522690142728beaaf592bff4c1c',
}

#: (family, endpoints, params, cables, uplinks) -> digest of the machine
#: degraded by ``degrade(..., seed=3)``.
DEGRADED: dict[tuple[str, int, tuple[tuple[str, object], ...], int, int],
               str] = {
    ('nesttree', 512, (('t', 2), ('u', 4)), 8, 4):
        'dd890e12bb635274e52a32fe1d162ee88619c0fd471f1c45124e63bd384de7c1',
    ('nestghc', 384, (('t', 2), ('u', 4)), 6, 3):
        '404a1e21bc5635141a13c47446092a3112d69a644d35ecf839ca14a233a9d928',
    ('torus', 512, (), 8, 0):
        'a992922cf0eaccb00e69bca6ef5aee29f2e35c81174f913f4337d230d3639951',
    ('nesttree', 384, (('t', 2), ('u', 1)), 8, 0):
        '16159a9ec614c744c8808a7d6addbbc30680df209bc5ad8a9bb088fd88507a5a',
}


def _ids(case) -> str:
    return "-".join(
        ",".join(f"{k}={x}" for k, x in v) or "default"
        if isinstance(v, tuple) else str(v) for v in case)


def test_every_family_pinned():
    pinned = {family for family, _, _ in DIGESTS}
    assert pinned == set(registry.available())
    for family in pinned:
        sizes = {n for f, n, _ in DIGESTS if f == family}
        assert {384, 512} <= sizes, (family, sizes)


@pytest.mark.parametrize("case", list(DIGESTS), ids=_ids)
def test_topology_digest(case):
    family, n, params = case
    assert topology_digest(build(family, n, **dict(params))) == DIGESTS[case]


@pytest.mark.parametrize("case", list(DEGRADED), ids=_ids)
def test_degraded_digest(case):
    family, n, params, cables, uplinks = case
    topo = degrade(build(family, n, **dict(params)), cables=cables,
                   uplinks=uplinks, seed=3)
    assert topology_digest(topo) == DEGRADED[case]


if __name__ == "__main__":
    print("DIGESTS = {")
    for family, n, params in DIGESTS:
        print(f"    ({family!r}, {n}, {params!r}):\n        "
              f"{topology_digest(build(family, n, **dict(params)))!r},")
    print("}\nDEGRADED = {")
    for family, n, params, cables, uplinks in DEGRADED:
        topo = degrade(build(family, n, **dict(params)), cables=cables,
                       uplinks=uplinks, seed=3)
        print(f"    ({family!r}, {n}, {params!r}, {cables}, {uplinks}):\n"
              f"        {topology_digest(topo)!r},")
    print("}")
