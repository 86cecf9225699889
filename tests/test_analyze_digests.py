"""Bitwise goldens of the static analyzer's per-link loads.

Each case pins one sha256 over the dtype, shape and bytes of
``analyze(topology, flows).loads`` for a seeded workload at 512
endpoints.  A load is a float sum over every route crossing the link, so
the order in which the analyzer adds the routes' bytes is part of the
golden: summing the same routes in another order moves the last bits.

To print the digests of the current tree::

    PYTHONPATH=src python tests/test_analyze_digests.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.engine import analyze
from repro.topology import build
from repro.workloads import build as build_workload

ENDPOINTS = 512

#: label -> (family, params) of the pinned machines.
TOPOLOGIES = {
    "nesttree(2,4)": ("nesttree", {"t": 2, "u": 4}),
    "nestghc(2,8)": ("nestghc", {"t": 2, "u": 8}),
    "fattree": ("fattree", {}),
    "torus": ("torus", {}),
}

WORKLOADS = ("allreduce", "bisection", "unstructuredhr")


def loads_digest(loads: np.ndarray) -> str:
    h = hashlib.sha256(f"loads:{loads.dtype.str}:{loads.shape}".encode())
    h.update(np.ascontiguousarray(loads).tobytes())
    return h.hexdigest()


def case_loads(workload: str, label: str, **kwargs) -> np.ndarray:
    family, params = TOPOLOGIES[label]
    topo = build(family, ENDPOINTS, **params)
    flows = build_workload(workload, ENDPOINTS, seed=0).build()
    return analyze(topo, flows, **kwargs).loads


#: (workload, topology label) -> digest.
DIGESTS: dict[tuple[str, str], str] = {
    ('allreduce', 'nesttree(2,4)'):
        'be9c3bf2a0ff7dc486e6912866a9ea060e86e5162270903356eee710efcfe954',
    ('allreduce', 'nestghc(2,8)'):
        'd3e938c735e48b33d1cfd8757b7ad57d986a2aefc581728b8d01b08ec2428901',
    ('allreduce', 'fattree'):
        '4bdbde0377ddf28aafa5a458d7bfc77bd00cd29a26a4162f88aeeae0dca75e4e',
    ('allreduce', 'torus'):
        'c44527a6b88b5cf8535866cffbed07db5fa537fb7d607ec2ecd7567864ad5259',
    ('bisection', 'nesttree(2,4)'):
        '83fbfd59dc521f23c6dc5b3a545b4aec8e2a0bca47ce6c3ddab72b4c8873070f',
    ('bisection', 'nestghc(2,8)'):
        '236da3b0f5d8fb75485ede204583f14cb8788de645c895f8ef899fcf29ee416b',
    ('bisection', 'fattree'):
        '35f10aef9a219243a9df85e72c0253f872367691ba8078ba4fde6743c641e4df',
    ('bisection', 'torus'):
        'c2b2d4b984c77e7d9d44a52a217e40b6548589013d0e8d0dba0d6c4553a1dbeb',
    ('unstructuredhr', 'nesttree(2,4)'):
        '53be4c23960a29fdf90e7fa4cb44dedff18900305d86fae9911396328c5387bc',
    ('unstructuredhr', 'nestghc(2,8)'):
        '28bbca2a0c7efba210e40e445b0294a6bc38726ccb5db9e8bab90bca11230393',
    ('unstructuredhr', 'fattree'):
        '6396fad4381229cef862b592f2e840adf8c8f921144e3fe0ff0fc89915bb701b',
    ('unstructuredhr', 'torus'):
        '314ebc8dac88b4cc813524af98a388e47c69f1dcae33ec06a312df0e35edd172',
}


@pytest.mark.parametrize("case", list(DIGESTS), ids="-".join)
def test_analyze_loads_digest(case):
    assert loads_digest(case_loads(*case)) == DIGESTS[case]


def test_every_case_pinned():
    assert set(DIGESTS) == {(w, t) for w in WORKLOADS for t in TOPOLOGIES}


if __name__ == "__main__":
    print("DIGESTS = {")
    for w in WORKLOADS:
        for t in TOPOLOGIES:
            print(f"    ({w!r}, {t!r}):\n        "
                  f"{loads_digest(case_loads(w, t))!r},")
    print("}")
