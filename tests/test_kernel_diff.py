"""End-to-end differential tests: the engine against the loop oracle.

:func:`repro.engine.simulate` (incremental allocator, NumPy fill kernels,
batched event loop) must return the same
:class:`~repro.engine.results.SimulationResult` as
:func:`tests.oracle.simulate_rebuild` (per-flow walk, from-scratch
reference allocation) bit for bit, on every engine-supported topology
family, both fidelities and all three routing policies.  The kernels'
own properties — random churn against the reference allocation, relevel
against the full pass — live in ``tests/test_active.py`` and
``tests/test_exact_batch.py``.
"""

from __future__ import annotations

import pytest

from repro.engine import simulate
from repro.workloads import build as build_workload
from tests.oracle import assert_results_identical, simulate_rebuild

_FAMILIES = ("small_torus", "small_fattree", "small_ghc", "small_nesttree",
             "small_nestghc")


def _against_oracle(topology, flows, **kwargs) -> None:
    assert_results_identical(simulate(topology, flows, **kwargs),
                             simulate_rebuild(topology, flows, **kwargs),
                             "engine", "oracle")


class TestSimulationDiff:
    @pytest.mark.parametrize("family", _FAMILIES)
    @pytest.mark.parametrize("fidelity", ("exact", "approx"))
    def test_allreduce_all_families(self, request, family, fidelity):
        topo = request.getfixturevalue(family)
        flows = build_workload("allreduce", topo.num_endpoints,
                               seed=0).build()
        _against_oracle(topo, flows, fidelity=fidelity)

    @pytest.mark.parametrize("routing",
                             ("deterministic", "ecmp", "adaptive"))
    def test_unstructured_all_policies(self, small_nesttree, routing):
        flows = build_workload("unstructuredhr",
                               small_nesttree.num_endpoints, seed=1).build()
        _against_oracle(small_nesttree, flows, fidelity="approx",
                        routing=routing)

    def test_weighted_flows(self, small_fattree):
        flows = build_workload("mapreduce", small_fattree.num_endpoints,
                               seed=2).build()
        _against_oracle(small_fattree, flows)
