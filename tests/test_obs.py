"""Tests for the observability layer (collector, streams, profile, CLI).

Covers the ``repro.obs`` surfaces end to end: collector accounting, tier
aggregation through topology link metadata, snapshot/stream schema
validation, the ``repro profile`` report, sweep ``--metrics`` files in
serial and parallel (including checkpoint resume), and the engine
regressions that ride along with the layer (zero-rate guard, absolute tie
window for zero-byte flows).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import DesignSpaceExplorer
from repro.engine import simulate
from repro.engine.flows import FlowBuilder, FlowSet
from repro.errors import ConfigError, SimulationError
from repro.obs import (SCHEMA_VERSION, SWEEP_SCHEMA_VERSION,
                       MetricsCollector, MetricsStream, profile_report,
                       tier_table, validate_metrics_file, validate_record,
                       validate_snapshot)
from repro.units import DEFAULT_LINK_CAPACITY as CAP


def _pair_flowset(sizes, num_tasks=4) -> FlowSet:
    """Independent 0->1 flows with the given sizes (bypasses FlowBuilder's
    positive-size check so zero-byte flows can be constructed)."""
    n = len(sizes)
    return FlowSet(
        num_tasks=num_tasks,
        src=np.zeros(n, dtype=np.int64),
        dst=np.ones(n, dtype=np.int64),
        size=np.asarray(sizes, dtype=np.float64),
        weight=np.ones(n, dtype=np.float64),
        indegree=np.zeros(n, dtype=np.int64),
        succ_indptr=np.zeros(n + 1, dtype=np.int64),
        succ_indices=np.empty(0, dtype=np.int64),
    )


# ------------------------------------------------------------- collector unit
class TestMetricsCollector:
    def test_flow_injection_split(self):
        c = MetricsCollector(8)
        c.flow_injected(100.0, 3)
        c.flow_injected(50.0, 0)   # zero-hop
        assert c.network_flows == 1
        assert c.zero_hop_flows == 1
        assert c.injected_bits == 100.0
        assert c.routed_link_bits == 300.0

    def test_account_event_accumulates_bits_and_busy(self):
        c = MetricsCollector(6)
        # two flows on links [0, 1] and [1, 2]
        entries = np.array([0, 1, 1, 2], dtype=np.int64)
        lens = np.array([2, 2], dtype=np.int64)
        rates = np.array([10.0, 20.0])
        c.account_event(entries, lens, rates, 0.5)
        assert c.events == 1
        np.testing.assert_allclose(c.link_bits[:3], [5.0, 15.0, 10.0])
        # link 1 is shared but was busy for the same 0.5 s, not 1.0 s
        np.testing.assert_allclose(c.link_busy[:3], [0.5, 0.5, 0.5])

    def test_zero_dt_event_counts_but_moves_nothing(self):
        c = MetricsCollector(4)
        c.account_event(np.array([0], dtype=np.int64),
                        np.array([1], dtype=np.int64), np.array([10.0]), 0.0)
        assert c.events == 1
        assert c.link_bits.sum() == 0.0
        assert c.link_busy.sum() == 0.0

    def test_allocation_stats(self):
        c = MetricsCollector(4)
        c.record_allocation(10, 3, "forced", 0.01)
        c.record_allocation(4, 1, "churn", 0.02)
        assert c.allocations == 2
        assert c.batch_flows_total == 14
        assert c.batch_flows_max == 10
        assert c.filling_iterations_total == 4
        assert c.filling_iterations_max == 3
        assert c.alloc_reasons["forced"] == 1
        assert c.alloc_reasons["churn"] == 1
        assert c.timers_s["allocation"] == pytest.approx(0.03)

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigError):
            MetricsCollector(-1)


# ------------------------------------------------------- snapshot + tier meta
class TestSnapshot:
    def test_flat_topology_tiers(self, small_torus):
        flows = FlowBuilder(small_torus.num_endpoints)
        flows.add_flow(0, 5, CAP * 0.1)
        c = MetricsCollector(small_torus.links.num_links)
        result = simulate(small_torus, flows.build(), metrics=c)
        snap = result.metrics
        validate_snapshot(snap)
        assert snap["schema"] == SCHEMA_VERSION
        assert set(snap["tiers"]) == {"network", "nic"}
        assert snap["makespan_s"] == pytest.approx(result.makespan)

    def test_nested_topology_tiers(self, small_nesttree):
        flows = FlowBuilder(small_nesttree.num_endpoints)
        flows.add_flow(0, 63, CAP * 0.1)   # crosses the upper tier
        flows.add_flow(0, 1, CAP * 0.1)    # stays in the subtorus
        c = MetricsCollector(small_nesttree.links.num_links)
        result = simulate(small_nesttree, flows.build(), metrics=c)
        snap = result.metrics
        validate_snapshot(snap)
        assert set(snap["tiers"]) == {"lower_torus", "uplinks",
                                      "upper_fabric", "nic"}
        assert snap["tiers"]["uplinks"]["delivered_bits"] > 0
        assert snap["tiers"]["lower_torus"]["delivered_bits"] > 0
        # tiers partition the links: counts and bits both sum to totals
        assert sum(t["links"] for t in snap["tiers"].values()) \
            == small_nesttree.links.num_links
        assert sum(t["delivered_bits"] for t in snap["tiers"].values()) \
            == pytest.approx(snap["delivered_link_bits"], rel=1e-12)

    def test_degraded_topology_shares_tier_metadata(self, small_nesttree):
        from repro.topology.degraded import DegradedTopology, FaultSet

        degraded = DegradedTopology(
            small_nesttree, FaultSet.sample(small_nesttree, cables=2, seed=1))
        names, index = degraded.link_tiers()
        base_names, base_index = small_nesttree.link_tiers()
        assert names == base_names
        np.testing.assert_array_equal(index, base_index)

    def test_validate_snapshot_rejects_bad_docs(self, small_torus):
        flows = FlowBuilder(small_torus.num_endpoints)
        flows.add_flow(0, 1, CAP * 0.1)
        c = MetricsCollector(small_torus.links.num_links)
        snap = simulate(small_torus, flows.build(), metrics=c).metrics

        with pytest.raises(ConfigError, match="schema"):
            validate_snapshot({**snap, "schema": "bogus-v0"})
        broken = dict(snap)
        del broken["tiers"]
        with pytest.raises(ConfigError, match="missing"):
            validate_snapshot(broken)
        skewed = json.loads(json.dumps(snap))
        skewed["delivered_link_bits"] *= 2.0
        with pytest.raises(ConfigError, match="delivered_link_bits"):
            validate_snapshot(skewed)

    def test_metrics_off_is_none_and_identical_makespan(self, small_torus):
        flows = FlowBuilder(small_torus.num_endpoints)
        for d in range(1, 8):
            flows.add_flow(0, d, CAP * 0.05 * d)
        fs = flows.build()
        plain = simulate(small_torus, fs)
        c = MetricsCollector(small_torus.links.num_links)
        instrumented = simulate(small_torus, fs, metrics=c)
        assert plain.metrics is None
        assert instrumented.makespan == plain.makespan
        assert instrumented.events == plain.events

    def test_empty_workload_snapshot(self, small_torus):
        fs = FlowBuilder(small_torus.num_endpoints).build()
        c = MetricsCollector(small_torus.links.num_links)
        result = simulate(small_torus, fs, metrics=c)
        validate_snapshot(result.metrics)
        assert result.metrics["delivered_link_bits"] == 0.0


# ------------------------------------------------------------ profile report
class TestProfileReport:
    def test_tables_render_and_total_matches(self, small_nesttree):
        flows = FlowBuilder(small_nesttree.num_endpoints)
        flows.add_flow(0, 63, CAP * 0.1)
        c = MetricsCollector(small_nesttree.links.num_links)
        snap = simulate(small_nesttree, flows.build(), metrics=c).metrics
        report = profile_report(snap)
        for tier in ("lower_torus", "uplinks", "upper_fabric", "nic"):
            assert tier in report
        assert "total" in tier_table(snap)
        assert "event loop" in report

    def test_profile_report_requires_snapshot(self):
        with pytest.raises(ConfigError):
            profile_report(None)


# ------------------------------------------------------------- JSONL stream
class TestMetricsStream:
    def _doc(self, key="k1", metrics=None):
        return {"key": key, "workload": "w", "topology": "t",
                "family": "torus", "t": None, "u": None, "faults": None,
                "makespan": 1.0, "wall_seconds": 0.1,
                **({"metrics": metrics} if metrics is not None else {})}

    def _snap(self, small_torus):
        flows = FlowBuilder(small_torus.num_endpoints)
        flows.add_flow(0, 1, CAP * 0.1)
        c = MetricsCollector(small_torus.links.num_links)
        return simulate(small_torus, flows.build(), metrics=c).metrics

    def test_roundtrip_and_dedup(self, tmp_path, small_torus):
        snap = self._snap(small_torus)
        path = tmp_path / "m.jsonl"
        with MetricsStream(path) as stream:
            assert stream.write_cell(self._doc("a", snap))
            assert not stream.write_cell(self._doc("a", snap))  # dedup
            assert stream.write_cell(self._doc("b", snap))
            assert not stream.write_cell({**self._doc("c", snap),
                                          "error": {"type": "X",
                                                    "message": "m"}})
        assert validate_metrics_file(path) == 2
        first = json.loads(path.read_text().splitlines()[0])
        assert first["schema"] == SWEEP_SCHEMA_VERSION
        validate_record(first)

    def test_missing_metrics_counted(self, tmp_path):
        with MetricsStream(tmp_path / "m.jsonl") as stream:
            assert not stream.write_cell(self._doc("a"))
            assert stream.skipped_no_metrics == 1

    def test_validator_rejects_duplicates_and_garbage(self, tmp_path,
                                                      small_torus):
        snap = self._snap(small_torus)
        path = tmp_path / "m.jsonl"
        record = {"schema": SWEEP_SCHEMA_VERSION, "key": "a",
                  "workload": "w", "topology": "t", "makespan": 1.0,
                  "wall_seconds": 0.1, "metrics": snap}
        path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ConfigError, match="duplicate"):
            validate_metrics_file(path)
        path.write_text("not json\n")
        with pytest.raises(ConfigError, match="undecodable"):
            validate_metrics_file(path)


# ------------------------------------------------------------ sweep metrics
ENDPOINTS = 64


def make_explorer(**kwargs) -> DesignSpaceExplorer:
    return DesignSpaceExplorer(ENDPOINTS, quadratic_tasks=16, seed=0,
                               **kwargs)


class TestSweepMetrics:
    def test_serial_sweep_writes_one_record_per_cell(self, tmp_path):
        path = tmp_path / "m.jsonl"
        table = make_explorer().run(["reduce"], metrics=str(path))
        assert validate_metrics_file(path) == len(table.records)

    def test_parallel_matches_serial_keys(self, tmp_path):
        serial, parallel = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
        make_explorer().run(["reduce"], metrics=str(serial))
        make_explorer().run(["reduce"], jobs=4, metrics=str(parallel))
        skeys = {json.loads(l)["key"] for l in serial.read_text().splitlines()}
        pkeys = {json.loads(l)["key"]
                 for l in parallel.read_text().splitlines()}
        assert skeys == pkeys
        assert validate_metrics_file(parallel) == len(pkeys)

    def test_resume_replays_checkpointed_metrics(self, tmp_path):
        from repro.service.store import content_digest

        ck, path = tmp_path / "ck", tmp_path / "m.jsonl"
        table = make_explorer().run(["reduce"], checkpoint=str(ck),
                                    metrics=str(path))
        total = len(table.records)

        # simulate a mid-sweep kill: drop the last 3 checkpointed cells
        plan = make_explorer().plan(["reduce"])
        for cell in plan.cells[-3:]:
            digest = content_digest(cell.fingerprint(), plan.meta())
            (ck / digest[:2] / f"{digest}.json").unlink()
        path.unlink()   # the metrics file is regenerated, not appended

        make_explorer().run(["reduce"], checkpoint=str(ck), resume=True,
                            metrics=str(path))
        assert validate_metrics_file(path) == total

    def test_resume_without_prior_metrics_warns(self, tmp_path):
        ck, path = tmp_path / "ck", tmp_path / "m.jsonl"
        make_explorer().run(["reduce"], checkpoint=str(ck))  # no metrics

        messages: list[str] = []
        explorer = make_explorer(progress=True)
        explorer._log = messages.append
        explorer.run(["reduce"], checkpoint=str(ck), resume=True,
                     metrics=str(path))
        assert any("carry no metrics" in m for m in messages)
        # all cells resumed metric-less; the file exists but holds nothing
        assert validate_metrics_file(path) == 0

    def test_checkpoint_cells_carry_metrics(self, tmp_path):
        from repro.service.store import ResultStore

        ck, path = tmp_path / "ck", tmp_path / "m.jsonl"
        make_explorer().run(["reduce"], checkpoint=str(ck),
                            metrics=str(path))
        store = ResultStore(ck)
        cells = [store.get(d)["record"] for d in store.digests()]
        assert cells and all("metrics" in doc for doc in cells)
        for doc in cells:
            validate_snapshot(doc["metrics"])


# -------------------------------------------------------- engine regressions
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestZeroRateGuard:
    def test_frozen_zero_rate_raises_typed_error(self, small_torus,
                                                 monkeypatch):
        from tests import oracle

        def zero_allocate(entries, ptr, capacities, weights, **kwargs):
            return np.zeros(ptr.shape[0] - 1, dtype=np.float64)

        monkeypatch.setattr(oracle, "allocate", zero_allocate)
        flows = FlowBuilder(small_torus.num_endpoints)
        flows.add_flow(0, 1, CAP * 0.1)
        with pytest.raises(SimulationError, match=r"flow\(s\) \[0\]"):
            oracle.simulate_rebuild(small_torus, flows.build())

    def test_frozen_zero_rate_raises_typed_error_incremental(
            self, small_torus, monkeypatch):
        from repro.engine.active import ActiveSet

        def zero_allocate(self, stats=None):
            if stats is not None:
                stats["iterations"] = 0
                stats["relevel"] = False
            self._rates[:self._m] = 0.0
            return self._rates[:self._m]

        monkeypatch.setattr(ActiveSet, "allocate", zero_allocate)
        flows = FlowBuilder(small_torus.num_endpoints)
        flows.add_flow(0, 1, CAP * 0.1)
        with pytest.raises(SimulationError, match=r"flow\(s\) \[0\]"):
            simulate(small_torus, flows.build())

    def test_error_names_fidelity(self, small_torus, monkeypatch):
        from tests import oracle

        monkeypatch.setattr(
            oracle, "allocate",
            lambda entries, ptr, capacities, weights, **kw:
                np.zeros(ptr.shape[0] - 1))
        flows = FlowBuilder(small_torus.num_endpoints)
        flows.add_flow(2, 3, CAP * 0.1)
        with pytest.raises(SimulationError, match="fidelity='approx'"):
            oracle.simulate_rebuild(small_torus, flows.build(),
                                    fidelity="approx")


class TestZeroByteTieWindow:
    def test_zero_byte_flows_complete_in_one_event(self, small_torus):
        # two zero-byte flows plus one that finishes within the absolute
        # tie window (deadline << _TIE_EPS seconds): one event batches all
        fs = _pair_flowset([0.0, 0.0, CAP * 1e-12])
        result = simulate(small_torus, fs)
        assert result.events == 1
        assert result.makespan <= 1e-9
        assert not np.isnan(result.completion_times).any()

    def test_zero_byte_flow_with_real_competitor(self, small_torus):
        # the zero-byte flow must not drag the real flow into its batch
        fs = _pair_flowset([0.0, CAP * 0.1])
        result = simulate(small_torus, fs)
        assert result.events == 2
        assert result.completion_times[0] == 0.0
        assert result.makespan > 0.01

    def test_zero_byte_metrics_conserved(self, small_torus):
        fs = _pair_flowset([0.0, CAP * 0.1])
        c = MetricsCollector(small_torus.links.num_links)
        simulate(small_torus, fs, metrics=c)
        route_len = len(small_torus.route(0, 1))
        # the zero-byte flow contributes zero bits but is a network flow
        assert c.network_flows == 2
        assert c.link_bits.sum() == pytest.approx(CAP * 0.1 * route_len)
