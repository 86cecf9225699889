"""Regression tests for the canonical cell fingerprint.

The cell key format is load-bearing: sweep results, metrics streams and
``results_out`` are keyed by it, so ``SweepCell.key()`` (a projection of
the shared ``fingerprint()``) must reproduce the historical strings
*byte-identically*.  The literals below were produced by the
pre-fingerprint implementation — do not regenerate them from the code
under test.
"""

from __future__ import annotations

import pytest

from repro._version import __version__ as ENGINE_VERSION
from repro.core.config import TopologySpec, WorkloadSpec
from repro.sweep.plan import SweepCell
from repro.topology.timeline import TimelineSpec


def _cell(**kwargs) -> SweepCell:
    defaults = dict(workload=WorkloadSpec("allreduce"),
                    topology=TopologySpec("nesttree", {"t": 2, "u": 4}))
    defaults.update(kwargs)
    return SweepCell(**defaults)


class TestCheckpointKeyRegression:
    """Pinned pre-fingerprint key strings, one per key-affecting axis."""

    def test_healthy_default(self):
        assert _cell().key() == "allreduce@all|nesttree(2,4)"

    def test_baseline_no_params(self):
        cell = _cell(topology=TopologySpec("fattree"))
        assert cell.key() == "allreduce@all|fattree"

    def test_capped_tasks(self):
        cell = _cell(workload=WorkloadSpec("mapreduce", tasks=512))
        assert cell.key() == "mapreduce@512|nesttree(2,4)"

    def test_static_faults(self):
        cell = _cell(fail_links=4, fail_uplinks=2, fail_seed=7)
        assert cell.key() == "allreduce@all|nesttree(2,4)|faults(4,2,s7)"

    def test_routing_policy(self):
        cell = _cell(routing="adaptive")
        assert cell.key() == "allreduce@all|nesttree(2,4)|routing(adaptive)"

    def test_timeline(self):
        cell = _cell(timeline=TimelineSpec(cables=2, seed=3, horizon=0.5,
                                           mttr=0.125))
        assert cell.key() == ("allreduce@all|nesttree(2,4)"
                              "|tl(2,0,s3,h0.5,r0.125)")

    def test_everything_but_faults(self):
        cell = _cell(workload=WorkloadSpec("nbodies", tasks=128),
                     routing="ecmp",
                     timeline=TimelineSpec(cables=1, uplinks=1, seed=0,
                                           horizon=1.0, mttr=None))
        assert cell.key() == ("nbodies@128|nesttree(2,4)|routing(ecmp)"
                              "|tl(1,1,s0,h1,r-)")

    def test_placement_never_in_key(self):
        # cell keys predate the placement axis; two placements of
        # the same cell share a key (but not a fingerprint)
        assert _cell(placement="random").key() == _cell().key()


class TestWorkloadParams:
    """Workload params are part of a cell's identity — when set."""

    def test_params_distinguish_key_and_digest(self):
        from repro.service.store import content_digest

        meta = {"endpoints": 64, "fidelity": "approx", "seed": 0}
        plain = _cell()
        tuned = _cell(workload=WorkloadSpec(
            "allreduce", params={"message_size": 2e6}))
        assert tuned.key() == ('allreduce@all|nesttree(2,4)'
                               '|params{"message_size":2000000.0}')
        assert tuned.fingerprint()["workload_params"] == \
            {"message_size": 2e6}
        assert content_digest(plain.fingerprint(), meta) != \
            content_digest(tuned.fingerprint(), meta)

    def test_empty_params_keep_historical_identity(self):
        cell = _cell(workload=WorkloadSpec("allreduce", params={}))
        assert cell.key() == "allreduce@all|nesttree(2,4)"
        assert "workload_params" not in cell.fingerprint()
        assert cell.fingerprint() == _cell().fingerprint()

    def test_param_order_is_canonical(self):
        a = _cell(workload=WorkloadSpec(
            "permutation", params={"pattern": "shuffle", "repetitions": 2}))
        b = _cell(workload=WorkloadSpec(
            "permutation", params={"repetitions": 2, "pattern": "shuffle"}))
        assert a.key() == b.key()


class TestFingerprint:
    def test_carries_engine_version(self):
        assert _cell().fingerprint()["engine"] == ENGINE_VERSION

    def test_distinguishes_placement(self):
        assert _cell(placement="random").fingerprint() \
            != _cell(placement="spread").fingerprint()

    def test_json_safe_and_deterministic(self):
        import json

        cell = _cell(fail_links=2, fail_seed=1, routing="adaptive")
        a = json.dumps(cell.fingerprint(), sort_keys=True)
        b = json.dumps(_cell(fail_links=2, fail_seed=1,
                             routing="adaptive").fingerprint(),
                       sort_keys=True)
        assert a == b

    @pytest.mark.parametrize("kwargs", [
        {},
        {"fail_links": 3, "fail_seed": 2},
        {"routing": "ecmp"},
        {"timeline": TimelineSpec(cables=2, horizon=0.25)},
    ])
    def test_key_is_projection(self, kwargs):
        """Every key-visible axis also appears in the fingerprint."""
        cell = _cell(**kwargs)
        fp = cell.fingerprint()
        assert fp["topology"] in cell.key()
        assert fp["workload"] in cell.key()
        assert fp["faults"] == cell.fault_fingerprint()
