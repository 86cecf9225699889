"""Equivalence regression for the event loop.

:func:`repro.engine.simulate` processes same-instant completions in
batches — one ``remove_many`` per completion batch, one ``add_many`` per
release batch with batch-inherited rates, batched rerouting at fault
boundaries — except where adaptive routing needs the per-flow walk.

* Healthy runs are compared bitwise against the loop oracle
  (:func:`tests.oracle.simulate_rebuild`, the per-flow rebuild-per-event
  engine): 3 workloads x 2 fidelities x 3 routing policies, plus the
  weighted and zero-hop cases.
* A Hypothesis property drives random DAGs through the release pairing:
  repeated dependency edges, successors shared by same-instant
  completions at different rates, and zero-hop flows, against the same
  oracle.  Two fixed cases pin the walk order it relies on: a batch is
  walked in admission order, not slot order, and zero-hop roots release
  their successors where the per-flow walk admits them.
* Fault-timeline runs have no oracle; they are pinned to the makespan
  (``float.hex``), event, reallocation and recovery counts the separate
  transient event loop produced before it was folded into ``simulate``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import simulate
from repro.engine.flows import FlowBuilder
from repro.topology import FaultTimeline
from repro.units import DEFAULT_LINK_CAPACITY as CAP
from repro.workloads import build as build_workload
from tests.oracle import assert_results_identical, simulate_rebuild

_WORKLOADS = ("allreduce", "permutation", "unstructuredhr")
_POLICIES = ("deterministic", "ecmp", "adaptive")


def _against_oracle(**kwargs):
    """Run ``simulate`` and the oracle on ``kwargs``; assert identical."""
    result = simulate(**kwargs)
    assert_results_identical(result, simulate_rebuild(**kwargs),
                             "engine", "oracle")
    return result


def _transient(rerouted, bits, fault_events=8):
    return {"fault_events": fault_events, "flows_rerouted": rerouted,
            "flows_parked": 0, "flows_recovered": 0,
            "rerouted_bits": bits, "recovery_seconds": 0.0}


#: (fidelity, routing) -> (makespan hex, events, reallocations, counters)
#: of the allreduce fault-boundary scenario below.
_BOUNDARIES = {
    ("exact", "deterministic"):
        ("0x1.4ae3503291de8p-8", 47, 47, _transient(2, 4739599.34995815)),
    ("exact", "ecmp"):
        ("0x1.a2037e1651d51p-8", 123, 123, _transient(2, 4739599.34995815)),
    ("exact", "adaptive"):
        ("0x1.4ae3503291de7p-8", 48, 48, _transient(2, 4739599.34995815)),
    ("approx", "deterministic"):
        ("0x1.4ae3503291de6p-8", 49, 41, _transient(2, 4739599.34995815)),
    ("approx", "ecmp"):
        ("0x1.a1ece5312d177p-8", 124, 79, _transient(2, 4739599.34995815)),
    ("approx", "adaptive"):
        ("0x1.4ae3503291de5p-8", 53, 42, _transient(2, 4739599.34995815)),
}

#: fidelity -> pinned result of the many-cables unstructuredhr scenario.
_MANY_CABLES = {
    "exact": ("0x1.4427c8ef3ad06p-6", 83, 83,
              _transient(27, 20624770.480933223, 16)),
    "approx": ("0x1.445f54bd29e35p-6", 83, 28,
               _transient(27, 20624770.480933223, 16)),
}


def assert_pinned(result, pinned) -> None:
    makespan, events, reallocations, transient = pinned
    assert result.makespan.hex() == makespan
    assert result.events == events
    assert result.reallocations == reallocations
    assert result.transient == transient


class TestHealthyLoop:
    @pytest.mark.parametrize("workload", _WORKLOADS)
    @pytest.mark.parametrize("fidelity", ("exact", "approx"))
    @pytest.mark.parametrize("routing", _POLICIES)
    def test_batched_matches_per_flow(self, small_nesttree, workload,
                                      fidelity, routing):
        flows = build_workload(workload, small_nesttree.num_endpoints,
                               seed=0).build()
        result = _against_oracle(topology=small_nesttree, flows=flows,
                                 fidelity=fidelity, routing=routing)
        assert result.transient is None
        assert np.isfinite(result.completion_times).all()

    def test_weighted_workload(self, small_fattree):
        flows = build_workload("mapreduce", small_fattree.num_endpoints,
                               seed=3).build()
        for fidelity in ("exact", "approx"):
            _against_oracle(topology=small_fattree, flows=flows,
                            fidelity=fidelity)

    def test_oversubscribed_placement_zero_hop(self, small_torus):
        """Co-located tasks exercise the zero-hop sequential fallback."""
        tasks = small_torus.num_endpoints * 2
        flows = build_workload("allreduce", tasks, seed=0).build()
        placement = np.arange(tasks) % small_torus.num_endpoints
        for fidelity in ("exact", "approx"):
            _against_oracle(topology=small_torus, flows=flows,
                            placement=placement, fidelity=fidelity)


def _background(builder: FlowBuilder, task: int) -> None:
    """Long flows from ``task`` to ``task + 1`` that keep approx mode
    from reallocating while a test's own flows run."""
    for _ in range(300):
        builder.add_flow(task, task + 1, CAP * 1e-3)


@st.composite
def _release_dags(draw):
    """A random flow DAG built to stress the batched release pairing.

    A :func:`_background` on one other task pair keeps the active set
    far above the churn bound until the DAG part is done, so approx mode
    admits released flows with their inherited rate and runs on it (with
    a small set every event reallocates, and the inherited rate is never
    read); it shares one route and one size, so it completes in a single
    event.  The DAG part is groups of flows on a few tasks.  A group's
    two or three flows share one task pair (a zero-hop pair when the
    tasks coincide), one predecessor list and one base size, and have
    weights 1 and 2 (both present) with sizes in proportion.  The first
    groups are roots: every rate they get comes from a full allocation, so it stays
    in proportion to the weight, and flows on one bottleneck complete at
    one instant at different rates.  A later group names one to four
    flows of one earlier group as predecessors, with repeats (a repeated
    ``add_dependency`` edge counts twice).
    """
    hub = draw(st.integers(2, 4))   # tasks the DAG part lives on
    builder = FlowBuilder(hub + 2)
    _background(builder, hub)
    groups: list[list[int]] = []
    num_roots = draw(st.integers(1, 4))
    for g in range(num_roots + draw(st.integers(1, 6))):
        s = draw(st.integers(0, hub - 1))
        d = draw(st.integers(0, hub - 1))
        preds = [] if g < num_roots else draw(st.lists(
            st.sampled_from(groups[draw(st.integers(0, g - 1))]),
            min_size=1, max_size=4))
        size = CAP * draw(st.sampled_from((1e-6, 2e-6)))
        groups.append([
            builder.add_flow(s, d, size * weight, after=preds,
                             weight=weight)
            for weight in draw(st.permutations((1.0, 2.0)))
            + draw(st.lists(st.sampled_from((1.0, 2.0)), max_size=1))])
    return builder.build()


class TestReleasePairing:
    @settings(deadline=None)
    @given(flows=_release_dags())
    def test_random_dags_match_oracle(self, small_torus, flows):
        for fidelity in ("exact", "approx"):
            _against_oracle(topology=small_torus, flows=flows,
                            fidelity=fidelity)

    @pytest.mark.parametrize("routing", _POLICIES)
    def test_batch_walks_in_admission_order(self, small_torus, routing):
        """A removal moves the last slot down, so slot order is not
        admission order.  Here ``a`` completes first and its slot goes to
        ``c``; ``b`` and ``c`` then complete together at different rates,
        and ``x`` inherits the rate of ``c``, its last predecessor in
        admission order.  Adaptive routing walks the batch per flow, the
        others in one release batch: both must walk admission order."""
        builder = FlowBuilder(4)
        _background(builder, 2)
        builder.add_flow(0, 1, CAP * 1e-6)                        # a
        b = builder.add_flow(1, 0, CAP * 1e-6)
        c = builder.add_flow(1, 0, CAP * 2e-6, weight=2.0)
        x = builder.add_flow(0, 1, CAP * 1e-6, after=[c, b])
        flows = builder.build()
        result = _against_oracle(topology=small_torus, flows=flows,
                                 fidelity="approx", routing=routing)
        assert result.completion_times[b] == result.completion_times[c]
        assert result.start_times[x] == result.completion_times[c]

    def test_zero_hop_roots_admit_in_walk_order(self, small_torus):
        """A zero-hop root completes at time 0 and releases ``x`` before
        the later root ``c`` is admitted; ``x`` and ``c`` complete
        together at different rates, and ``y`` inherits the rate of
        ``c``, its last predecessor in admission order."""
        builder = FlowBuilder(4)
        _background(builder, 2)
        a = builder.add_flow(0, 0, CAP * 1e-6)                    # zero-hop
        x = builder.add_flow(1, 0, CAP * 1e-6, after=[a])
        c = builder.add_flow(1, 0, CAP * 2e-6, weight=2.0)
        builder.add_flow(0, 1, CAP * 1e-6, after=[x, c])
        flows = builder.build()
        result = _against_oracle(topology=small_torus, flows=flows,
                                 fidelity="approx")
        assert result.completion_times[x] == result.completion_times[c]


class TestTransientLoop:
    @pytest.mark.parametrize("fidelity", ("exact", "approx"))
    @pytest.mark.parametrize("routing", _POLICIES)
    def test_fault_boundaries_match(self, small_nesttree, fidelity,
                                    routing):
        flows = build_workload("allreduce", small_nesttree.num_endpoints,
                               seed=0).build()
        base = simulate(small_nesttree, flows)
        tl = FaultTimeline.sample(small_nesttree, cables=4, seed=3,
                                  horizon=base.makespan * 0.8,
                                  mttr=base.makespan * 0.25)
        result = simulate(small_nesttree, flows, fidelity=fidelity,
                          routing=routing, fault_timeline=tl)
        assert_pinned(result, _BOUNDARIES[fidelity, routing])
        assert result.transient["fault_events"] > 0

    def test_parked_flow_recovery_matches(self, small_nesttree):
        """Many cables out at once: most in-flight flows are rerouted.

        Parking itself is pinned by the 512-endpoint campaign golden in
        ``tests/test_campaign.py``, whose fattree seeds park flows.
        """
        flows = build_workload("unstructuredhr",
                               small_nesttree.num_endpoints, seed=1).build()
        base = simulate(small_nesttree, flows)
        tl = FaultTimeline.sample(small_nesttree, cables=8, seed=11,
                                  horizon=base.makespan * 0.6,
                                  mttr=base.makespan * 0.2)
        for fidelity in ("exact", "approx"):
            assert_pinned(simulate(small_nesttree, flows,
                                   fidelity=fidelity, fault_timeline=tl),
                          _MANY_CABLES[fidelity])
