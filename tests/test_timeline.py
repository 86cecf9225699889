"""Tests for transient fault timelines and the engine's fault epochs.

The acceptance matrix of transient faults:

* an empty ``FaultTimeline`` leaves ``simulate()`` bitwise-identical to a
  call without one and to the loop oracle, for all routing policies;
* a timeline whose events all precede t=0 and never repair matches the
  equivalent static ``DegradedTopology`` run exactly;
* mid-run faults recover in-flight flows (remaining bytes preserved),
  park flows whose pair is cut until a repair, and raise the typed
  ``DegradedNetworkError`` only when no repair ever reconnects the pair.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import simulate
from repro.engine.flows import FlowBuilder
from repro.errors import DegradedNetworkError, SimulationError, TopologyError
from repro.obs import MetricsCollector
from repro.obs.metrics import validate_snapshot
from repro.topology import (DegradedTopology, FaultEvent, FaultSet,
                            FaultTimeline, TimelineSpec, build)
from repro.workloads import build as build_workload
from tests.oracle import simulate_rebuild

ENDPOINTS = 64

_topos: dict[str, object] = {}
_flows: dict[str, object] = {}


def topo(family="torus"):
    if family not in _topos:
        _topos[family] = build(family, ENDPOINTS,
                               **({"t": 2, "u": 2}
                                  if family in ("nesttree", "nestghc")
                                  else {}))
    return _topos[family]


def flows(name="allreduce"):
    if name not in _flows:
        _flows[name] = build_workload(name, ENDPOINTS).build()
    return _flows[name]


def cable_of(topology, u, v):
    """Both directed link ids of the (u, v) cable."""
    return frozenset({topology.links.id_of(u, v),
                      topology.links.id_of(v, u)})


class TestFaultTimeline:
    def test_sampling_is_reproducible(self):
        t = topo()
        a = FaultTimeline.sample(t, cables=4, seed=3, horizon=1.0, mttr=0.2)
        b = FaultTimeline.sample(t, cables=4, seed=3, horizon=1.0, mttr=0.2)
        assert [ev.time for ev in a.events] == [ev.time for ev in b.events]
        assert all(x.fail_links == y.fail_links
                   for x, y in zip(a.events, b.events))
        assert a.fingerprint() == {"cables": 4, "uplinks": 0, "seed": 3,
                                   "horizon": 1.0, "mttr": 0.2}

    def test_sampled_repairs_restore_everything(self):
        tl = FaultTimeline.sample(topo(), cables=5, seed=1, horizon=1.0,
                                  mttr=0.1)
        final = tl.epochs()[-1].faults
        assert final.empty

    def test_permanent_faults_never_repair(self):
        tl = FaultTimeline.sample(topo(), cables=5, seed=1, horizon=1.0)
        assert all(not ev.repair_links for ev in tl.events)
        assert len(tl.epochs()[-1].faults.failed_links) == 10

    def test_same_instant_events_merge(self):
        t = topo()
        c1 = cable_of(t, 0, 1)
        c2 = cable_of(t, 1, 2)
        tl = FaultTimeline([FaultEvent(0.5, fail_links=c1),
                            FaultEvent(0.5, fail_links=c2)])
        assert len(tl.events) == 1
        assert tl.events[0].fail_links == c1 | c2

    def test_fail_and_repair_same_instant_rejected(self):
        c = cable_of(topo(), 0, 1)
        with pytest.raises(TopologyError, match="fails and repairs"):
            FaultTimeline([FaultEvent(0.5, fail_links=c, repair_links=c)])

    def test_double_fail_rejected(self):
        c = cable_of(topo(), 0, 1)
        tl = FaultTimeline([FaultEvent(0.1, fail_links=c),
                            FaultEvent(0.2, fail_links=c)])
        with pytest.raises(TopologyError, match="already-failed"):
            tl.epochs()

    def test_ghost_repair_rejected(self):
        c = cable_of(topo(), 0, 1)
        tl = FaultTimeline([FaultEvent(0.1, repair_links=c)])
        with pytest.raises(TopologyError, match="not failed"):
            tl.epochs()

    def test_epochs_accumulate_and_heal(self):
        t = topo()
        c1, c2 = cable_of(t, 0, 1), cable_of(t, 1, 2)
        tl = FaultTimeline([FaultEvent(0.1, fail_links=c1),
                            FaultEvent(0.2, fail_links=c2),
                            FaultEvent(0.3, repair_links=c1)])
        eps = tl.epochs()
        assert [e.start for e in eps] == [0.1, 0.2, 0.3]
        assert eps[0].faults.failed_links == c1
        assert eps[1].faults.failed_links == c1 | c2
        assert eps[2].faults.failed_links == c2

    def test_from_fault_set_roundtrip(self):
        fs = FaultSet.sample(topo(), cables=3, seed=5)
        tl = FaultTimeline.from_fault_set(fs)
        assert len(tl.events) == 1
        assert tl.epochs()[0].faults.failed_links == fs.failed_links

    def test_describe_counts_cables(self):
        tl = FaultTimeline.sample(topo(), cables=3, seed=0, horizon=2.0,
                                  mttr=0.5)
        assert "3 failures, 3 repairs" in tl.describe()
        assert FaultTimeline().describe() == "empty timeline"

    def test_spec_builds_identical_timeline(self):
        spec = TimelineSpec(cables=3, seed=2, horizon=1.5, mttr=0.3)
        a, b = spec.build(topo()), spec.build(topo())
        assert [ev.time for ev in a.events] == [ev.time for ev in b.events]
        assert spec.label() == "tl(3,0,s2,h1.5,r0.3)"
        assert spec.fingerprint()["mttr"] == 0.3

    def test_uplink_sampling_needs_hybrid(self):
        with pytest.raises(TopologyError, match="hybrid"):
            FaultTimeline.sample(topo(), uplinks=1, horizon=1.0)

    def test_hybrid_uplink_timeline(self):
        tl = FaultTimeline.sample(topo("nesttree"), cables=2, uplinks=2,
                                  seed=0, horizon=1.0, mttr=0.2)
        assert sum(len(ev.fail_uplinks) for ev in tl.events) == 2
        tl.validate(topo("nesttree"))


class TestEmptyTimelineIdentity:
    """Acceptance: an empty timeline is bitwise-invisible."""

    @pytest.mark.parametrize("routing",
                             ("deterministic", "ecmp", "adaptive"))
    @pytest.mark.parametrize("reference", (simulate, simulate_rebuild),
                             ids=("incremental", "rebuild"))
    def test_bitwise_identical(self, routing, reference):
        base = reference(topo(), flows(), fidelity="approx",
                         routing=routing)
        timed = simulate(topo(), flows(), fidelity="approx",
                         routing=routing, fault_timeline=FaultTimeline())
        assert timed.makespan == base.makespan
        assert np.array_equal(timed.completion_times, base.completion_times)
        assert np.array_equal(timed.start_times, base.start_times)
        assert timed.events == base.events
        assert timed.reallocations == base.reallocations
        assert timed.transient is None

    def test_never_firing_timeline_is_bitwise_identical(self):
        # events exist but all land beyond the job's end: the fault
        # event source is armed, yet no epoch boundary ever fires
        base = simulate(topo(), flows(), fidelity="approx")
        tl = FaultTimeline.sample(topo(), cables=4, seed=2,
                                  horizon=base.makespan * 1e6)
        assert all(ev.time > base.makespan for ev in tl.events)
        timed = simulate(topo(), flows(), fidelity="approx",
                         fault_timeline=tl)
        assert timed.makespan == base.makespan
        assert np.array_equal(timed.completion_times, base.completion_times)
        assert timed.transient["fault_events"] == 0


class TestStaticEquivalence:
    """Acceptance: pre-t0 events that never repair == static FaultSet."""

    @pytest.mark.parametrize("fidelity", ("exact", "approx"))
    @pytest.mark.parametrize("routing",
                             ("deterministic", "ecmp", "adaptive"))
    def test_matches_degraded_topology_run(self, fidelity, routing):
        fs = FaultSet.sample(topo(), cables=3, seed=7)
        static = simulate(DegradedTopology(topo(), fs), flows(),
                          fidelity=fidelity, routing=routing)
        timed = simulate(topo(), flows(), fidelity=fidelity,
                         routing=routing,
                         fault_timeline=FaultTimeline.from_fault_set(fs))
        assert timed.makespan == static.makespan
        assert np.array_equal(timed.completion_times,
                              static.completion_times)
        assert timed.events == static.events
        assert timed.transient["fault_events"] == 0

    def test_pre_t0_hybrid_uplink_faults_match(self):
        fs = FaultSet.sample(topo("nesttree"), cables=2, uplinks=1, seed=1)
        static = simulate(DegradedTopology(topo("nesttree"), fs),
                          flows(), fidelity="approx")
        timed = simulate(topo("nesttree"), flows(), fidelity="approx",
                         fault_timeline=FaultTimeline.from_fault_set(
                             fs, time=-1.0))
        assert timed.makespan == static.makespan
        assert np.array_equal(timed.completion_times,
                              static.completion_times)


class TestTransientRecovery:
    def test_mid_run_faults_reroute_in_flight_flows(self):
        healthy = simulate(topo(), flows(), fidelity="approx")
        h = healthy.makespan
        tl = FaultTimeline.sample(topo(), cables=6, seed=3, horizon=h * 0.8,
                                  mttr=h * 0.2)
        result = simulate(topo(), flows(), fidelity="approx",
                          fault_timeline=tl)
        assert result.transient["fault_events"] > 0
        assert result.transient["flows_rerouted"] > 0
        assert result.transient["rerouted_bits"] > 0
        assert result.makespan >= h
        assert np.isfinite(result.completion_times).all()

    def test_exact_and_approx_both_recover(self):
        h = simulate(topo(), flows(), fidelity="approx").makespan
        tl = FaultTimeline.sample(topo(), cables=6, seed=3, horizon=h * 0.8,
                                  mttr=h * 0.2)
        for fidelity in ("exact", "approx"):
            result = simulate(topo(), flows(), fidelity=fidelity,
                              fault_timeline=tl)
            assert result.transient["flows_rerouted"] > 0

    def _single_flow(self, src, dst, size=8e6):
        fb = FlowBuilder(ENDPOINTS)
        fb.add_flow(src, dst, size)
        return fb.build()

    def _isolate_endpoint(self, t, endpoint):
        """Every network cable touching ``endpoint`` (its whole degree)."""
        nic_base = t.num_endpoints + t.num_switches
        return frozenset(
            lid for lid in range(t.links.num_links)
            if endpoint in t.links.endpoints_of(lid)
            and max(t.links.endpoints_of(lid)) < nic_base)

    def test_cut_pair_parks_until_repair(self):
        # cut endpoint 0's entire degree mid-flow, then repair: the flow
        # must park (it cannot route anywhere) and recover on repair
        t = topo()
        wl = self._single_flow(0, 5)
        h = simulate(t, wl).makespan
        cut = self._isolate_endpoint(t, 0)
        tl = FaultTimeline([
            FaultEvent(h * 0.25, fail_links=cut),
            FaultEvent(h * 2.0, repair_links=cut),
        ])
        result = simulate(t, wl, fault_timeline=tl)
        assert result.transient["flows_parked"] == 1
        assert result.transient["flows_recovered"] == 1
        assert result.transient["recovery_seconds"] > 0
        # the flow sat parked from the cut until the repair
        assert result.makespan > h * 2.0

    def test_released_flow_parks_when_pair_is_cut(self):
        # the successor of a completed flow is released while its pair is
        # cut: admission itself must park it, not crash
        t = topo()
        fb = FlowBuilder(ENDPOINTS)
        first = fb.add_flow(10, 20, 4e6)
        fb.add_flow(0, 5, 4e6, after=[first])
        wl = fb.build()
        h_first = simulate(t, self._single_flow(10, 20, 4e6)).makespan
        cut = self._isolate_endpoint(t, 0)
        tl = FaultTimeline([
            FaultEvent(h_first * 0.5, fail_links=cut),
            FaultEvent(h_first * 3.0, repair_links=cut),
        ])
        result = simulate(t, wl, fault_timeline=tl)
        assert result.transient["flows_parked"] == 1
        assert result.transient["flows_recovered"] == 1
        assert np.isfinite(result.completion_times).all()

    def test_never_repaired_disconnect_raises(self):
        t = topo()
        wl = self._single_flow(0, 5)
        h = simulate(t, wl).makespan
        cut = self._isolate_endpoint(t, 0)
        tl = FaultTimeline([FaultEvent(h * 0.25, fail_links=cut)])
        with pytest.raises(DegradedNetworkError) as exc:
            simulate(t, wl, fault_timeline=tl)
        assert (0, 5) in exc.value.pairs

    def test_timeline_on_degraded_topology_rejected(self):
        deg = DegradedTopology(topo(), FaultSet.sample(topo(), cables=1))
        tl = FaultTimeline.sample(topo(), cables=1, seed=0, horizon=1.0)
        with pytest.raises(SimulationError, match="timeline events"):
            simulate(deg, flows(), fault_timeline=tl)

    def test_timeline_validated_against_topology(self):
        other = build("torus", 512)
        tl = FaultTimeline.sample(other, cables=4, seed=0, horizon=1.0)
        with pytest.raises(TopologyError, match="unknown link id"):
            simulate(topo(), flows(), fault_timeline=tl)

    def test_transient_runs_are_deterministic(self):
        h = simulate(topo(), flows(), fidelity="approx").makespan
        tl = FaultTimeline.sample(topo(), cables=6, seed=3, horizon=h * 0.8,
                                  mttr=h * 0.2)
        a = simulate(topo(), flows(), fidelity="approx", fault_timeline=tl)
        b = simulate(topo(), flows(), fidelity="approx", fault_timeline=tl)
        assert a.makespan == b.makespan
        assert np.array_equal(a.completion_times, b.completion_times)
        assert a.transient == b.transient

    def test_route_cache_is_shared_across_epochs(self):
        # fail/repair cycles must not poison a shared cache: a healthy run
        # through the same cache afterwards still matches a fresh one
        cache: dict = {}
        h = simulate(topo(), flows(), fidelity="approx").makespan
        tl = FaultTimeline.sample(topo(), cables=4, seed=1, horizon=h * 0.5,
                                  mttr=h * 0.1)
        simulate(topo(), flows(), fidelity="approx", fault_timeline=tl,
                 route_cache=cache)
        assert len(cache) > 0
        reused = simulate(topo(), flows(), fidelity="approx",
                          route_cache=cache)
        fresh = simulate(topo(), flows(), fidelity="approx")
        assert reused.makespan == fresh.makespan
        assert np.array_equal(reused.completion_times,
                              fresh.completion_times)


class TestTransientObservability:
    def test_metrics_snapshot_carries_transient_block(self):
        t = topo()
        h = simulate(t, flows(), fidelity="approx").makespan
        tl = FaultTimeline.sample(t, cables=6, seed=3, horizon=h * 0.8,
                                  mttr=h * 0.2)
        collector = MetricsCollector(t.links.num_links)
        result = simulate(t, flows(), fidelity="approx", fault_timeline=tl,
                          metrics=collector)
        snap = result.metrics
        validate_snapshot(snap)
        assert snap["transient"] == result.transient
        assert snap["transient"]["flows_rerouted"] > 0
        # fault-boundary reallocations are tallied alongside the others
        assert snap["allocator"]["fault_reallocations"] > 0

    def test_healthy_snapshot_has_no_transient_block(self):
        t = topo()
        collector = MetricsCollector(t.links.num_links)
        result = simulate(t, flows(), fidelity="approx", metrics=collector)
        validate_snapshot(result.metrics)
        assert "transient" not in result.metrics
        assert result.metrics["allocator"]["fault_reallocations"] == 0
