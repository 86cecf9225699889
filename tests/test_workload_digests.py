"""Bitwise goldens of every registered workload's FlowSet.

Each case pins a sha256 over the dtype, shape and bytes of the seven
FlowSet arrays (and the task count), so any change to a generator or to
``FlowBuilder`` that moves a single flow, dependency or successor
position fails here.  The CSR successor order matters: it drives the
simulator's release order.

To print the digests of the current tree::

    PYTHONPATH=src python tests/test_workload_digests.py
"""

from __future__ import annotations

import hashlib

import pytest

from repro.engine.flows import FlowSet
from repro.workloads import registry

ARRAYS = ("src", "dst", "size", "weight", "indegree", "succ_indptr",
          "succ_indices")


def flowset_digest(flows: FlowSet) -> str:
    h = hashlib.sha256(str(flows.num_tasks).encode())
    for name in ARRAYS:
        arr = getattr(flows, name)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


#: (workload, tasks, params) -> digest.  Every registered workload at one
#: power-of-two and one other task count (permutation patterns other than
#: tornado/neighbor need powers of two), plus extra collective shapes:
#: fold-heavy allreduce counts, the 4,096-task Figure 4 allreduce, and a
#: reduce with a non-zero root.
DIGESTS: dict[tuple[str, int, tuple[tuple[str, object], ...]], str] = {
    ('allreduce', 64, ()):
        '03984159b5bb2fab4807e44b4af3e6f9bf510ee4687bf45cf07ab94c3ab3803b',
    ('allreduce', 100, ()):
        'bcbcfe16039913437cc840308efda97ac4ec11d2944b9038ebce67806b06cc17',
    ('bisection', 64, ()):
        'f22d0adb402b03fac72c8bdd82ec1f289a211a5de188101fdcf3328b7725072d',
    ('bisection', 100, ()):
        '3f570544b76e605faae91e7d83d2eea1528fe9c37c999f0ac50bbbe084573fa1',
    ('flood', 64, ()):
        '373578fbe6f4dcf876389c6dc8420281ffab64a0825abe25c065f3cc9d01de8d',
    ('flood', 100, ()):
        'bb20578f369b59a633d4cf495430e704433320f9cb28fdcfc7e9f79e65f2b117',
    ('mapreduce', 64, ()):
        'efa90343e0b3eeec36fa4626600ca6a52a065f17f0b26c32df4c5b7b1a3a029b',
    ('mapreduce', 100, ()):
        '3d0da3dca7835ceb7dbba61495a99b80c0f5277644f4ad16d4e56c27cd6d6ac5',
    ('nbodies', 64, ()):
        'c89ca7801846a959bde293900f4e3dfc9835d42a3ad4855e583b0fe4eb53e261',
    ('nbodies', 100, ()):
        '704f6176464723de7a251b332e4beb3d25a662894d1eb5c42a9bef2897f0b427',
    ('nearneighbors', 64, ()):
        '7b09765a9f363c599f50611cc4679f3ee5e0bd7a03c6f27d2972bc067b8f7136',
    ('nearneighbors', 100, ()):
        '3f5941e5923322e71d970015efe2b5808cf9f3adb00b6cd55d86de1f48103392',
    ('permutation', 64, ()):
        '57ddef070c0da7fea755fd6432135623558e97a9014add4b72c8bcd3af0ce463',
    ('permutation', 128, ()):
        'fdf449794e2884c267a50567ac7c2b4df0f8d26bf086c74de736ed2f6daa11cf',
    ('reduce', 64, ()):
        '482d8084f253ac7f1dc7366d8952c3c784b668e089803bdef11596887c2dfc67',
    ('reduce', 100, ()):
        '0542f060067a044dc4f044b3f5aad8770acbd7e8c26c1d9ac63f1dbe8aab37cc',
    ('sweep3d', 64, ()):
        '3003765f7cf2e7202b4d40f5d351d9b127aa1c46eaec61066bbb1bd8eec1b5ac',
    ('sweep3d', 100, ()):
        '9c3a4e5ef40a65980efd3a2818e00ac1152ae640002f8aff3ca0cb8461468571',
    ('unstructuredapp', 64, ()):
        '9e47579be07a75b3270c364e29d6e5950dac2a1b69d68616a9696c75a8fb51bc',
    ('unstructuredapp', 100, ()):
        '0338f4433b68836e2f4a42b1ad41e8413f11154025546f196e91718edffa793a',
    ('unstructuredhr', 64, ()):
        '7ae4c37d35545709163dfb5009c65ee2db8b9c5794efeafb953a9ae2cb90d2bc',
    ('unstructuredhr', 100, ()):
        '678a29552e9b813de73d200977afc50ce4d7368a6a8f72f989ad136c9f5a563b',
    ('unstructuredmgnt', 64, ()):
        '312f8070ab2f3497877374a6061463ff3020be91f247fa5dca7003b7248c022f',
    ('unstructuredmgnt', 100, ()):
        '29fc573dadadda57f0422959075a8ade8f035d3df8dda0d199cbd878d808bd5f',
    ('allreduce', 2, ()):
        '055687a8a7ebbf4d906beb469502ef837728dcbbc0f4f7affa742b09a564cc3e',
    ('allreduce', 3, ()):
        'ab5e6021d97358feb3bcfefcc6c042e5723413d303121a20021b9026788027c7',
    ('allreduce', 7, ()):
        'ec884f62adc7e4ef7e5b0dcc0fb5fad5c6f644616c81724a1c7c654789ccedc3',
    ('allreduce', 24, ()):
        'b951f74b6c2e30663edf01ba70fad22b29372cd3bfd7ad1b4e4aa76c7adbba28',
    ('allreduce', 4096, ()):
        'd0bea6e37cde07159f00d50a086a3eca6224f79d3ba360e35862342b8028f85b',
    ('reduce', 100, (('root', 37),)):
        'a3820d4f1e3956d3cdf55b44d2e3a578774f817c7942da5ba73d52331975aca4',
    ('permutation', 100, (('pattern', 'tornado'),)):
        'b0074364d4f974d78a3d6fa66b071858d9c7d0a433e43d1cfa364a42b13f4088',
}


def test_every_workload_pinned():
    pinned = {name for name, _, _ in DIGESTS}
    assert pinned == set(registry.available())


@pytest.mark.parametrize("name,tasks,params", list(DIGESTS),
                         ids=lambda v: str(v) if not isinstance(v, tuple)
                         else ",".join(f"{k}={x}" for k, x in v) or "default")
def test_flowset_digest(name, tasks, params):
    flows = registry.build(name, tasks, **dict(params)).build()
    assert flowset_digest(flows) == DIGESTS[(name, tasks, params)]


if __name__ == "__main__":
    for name, tasks, params in DIGESTS:
        fs = registry.build(name, tasks, **dict(params)).build()
        print(f"    ({name!r}, {tasks}, {params!r}):\n"
              f"        {flowset_digest(fs)!r},")
