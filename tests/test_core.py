"""Tests for configs, the design-space explorer and normalisation."""

from __future__ import annotations

import pytest

from dataclasses import replace
from pathlib import Path

from repro.core import (DesignSpaceExplorer, PAPER_CONFIGS, ResultTable,
                        RunRecord, TopologySpec, WorkloadSpec,
                        baseline_specs, hybrid_specs)
from repro.errors import ConfigError


class TestSpecs:
    def test_paper_configs_are_the_twelve(self):
        assert len(PAPER_CONFIGS) == 12
        assert set(t for t, _ in PAPER_CONFIGS) == {2, 4, 8}
        assert set(u for _, u in PAPER_CONFIGS) == {1, 2, 4, 8}

    def test_hybrid_specs_pair_families(self):
        specs = hybrid_specs([(2, 4)])
        assert [s.family for s in specs] == ["nestghc", "nesttree"]
        assert specs[0].label() == "nestghc(2,4)"

    def test_baselines(self):
        assert [s.family for s in baseline_specs()] == ["fattree", "torus"]
        assert baseline_specs()[0].label() == "fattree"

    def test_topology_spec_builds(self):
        topo = TopologySpec("nesttree", {"t": 2, "u": 2}).build(64)
        assert topo.name == "nesttree"

    def test_workload_spec_task_resolution(self):
        assert WorkloadSpec("reduce").resolve_tasks(64) == 64
        assert WorkloadSpec("reduce", tasks=8).resolve_tasks(64) == 8
        with pytest.raises(ConfigError):
            WorkloadSpec("reduce", tasks=128).resolve_tasks(64)


class TestExplorer:
    @pytest.fixture(scope="class")
    def table(self):
        explorer = DesignSpaceExplorer(
            64, configs=[(2, 1), (2, 2)], fidelity="approx",
            quadratic_tasks=16)
        return explorer.run(["reduce", "unstructuredapp", "mapreduce"])

    def test_all_cells_present(self, table):
        # 3 workloads x (2 configs x 2 families + 2 baselines)
        assert len(table.records) == 3 * 6
        assert set(table.workloads()) == {"reduce", "unstructuredapp",
                                          "mapreduce"}

    def test_quadratic_task_cap_applied(self, table):
        cell = table.cell("mapreduce", "fattree")
        # 16 tasks: (16-1) + 16*15 + (16-1) flows
        assert cell.num_flows == 15 + 240 + 15

    def test_normalisation_reference_is_one(self, table):
        norm = table.normalised("reduce")
        assert norm["fattree"] == pytest.approx(1.0)
        assert len(norm) == 6

    def test_reduce_is_flat_everywhere(self, table):
        """Paper Section 5.2: consumption-port bound, identical makespans."""
        norm = table.normalised("reduce")
        assert max(norm.values()) / min(norm.values()) == \
            pytest.approx(1.0, abs=1e-6)

    def test_topology_cache_reused(self):
        explorer = DesignSpaceExplorer(64, configs=[(2, 1)])
        spec = explorer.topology_specs()[0]
        assert explorer.topology(spec) is explorer.topology(spec)

    def test_csv_roundtrip_shape(self, table):
        csv = table.to_csv()
        lines = csv.strip().split("\n")
        assert len(lines) == 1 + len(table.records)
        assert lines[0].startswith("workload,topology")

    def test_csv_quotes_labels_and_round_trips(self, table):
        import csv
        import io

        text = table.to_csv()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["topology"] for r in rows] == \
            [r.topology for r in table.records]
        assert all(None not in r for r in rows)  # no overflow column
        back = ResultTable.from_csv(text, table.endpoints, table.fidelity)
        assert back.to_csv() == text
        for got, want in zip(back.records, table.records, strict=True):
            assert got == replace(want, wall_seconds=round(
                want.wall_seconds, 3), timeline=None, transient=None)

    def test_csv_round_trips_faults_and_routing(self):
        record = RunRecord("reduce", "nestghc(2,4)", "nestghc", 2, 4,
                           0.125, 10, 3, 2, 1.5,
                           faults={"cables": 2, "uplinks": 1, "seed": 7},
                           routing="ecmp")
        table = ResultTable(64, "exact", [record])
        assert "2c+1u@s7" in table.to_csv()
        assert ResultTable.from_csv(table.to_csv(), 64, "exact").records \
            == [record]

    def test_csv_rejects_a_foreign_header(self):
        with pytest.raises(ConfigError):
            ResultTable.from_csv("a,b\n1,2\n", 64)

    def test_missing_cell_raises(self, table):
        with pytest.raises(KeyError):
            table.cell("reduce", "dragonfly")


class TestWorkloadDefaults:
    def test_quadratic_workloads_capped(self):
        explorer = DesignSpaceExplorer(4096, quadratic_tasks=128)
        assert explorer.workload_spec("mapreduce").tasks == 128
        assert explorer.workload_spec("nbodies").tasks == 128
        assert explorer.workload_spec("allreduce").tasks is None

    def test_small_systems_not_padded(self):
        explorer = DesignSpaceExplorer(64, quadratic_tasks=128)
        assert explorer.workload_spec("mapreduce").tasks == 64


class TestPlacementPolicy:
    """The plan cells carry each workload's placement policy, and the
    sweep runner turns it into the placement the cell simulates."""

    def test_nbodies_gets_fragmented_allocation(self):
        from repro.core.explorer import PLACEMENT_POLICY
        from repro.sweep.runner import _prepare_workload

        explorer = DesignSpaceExplorer(512, quadratic_tasks=64)
        assert PLACEMENT_POLICY["nbodies"] == "random"
        plan = explorer.plan(["nbodies", "mapreduce"])
        cells = {cell.workload.name: cell for cell in plan.cells}
        assert cells["nbodies"].placement == "random"
        assert cells["mapreduce"].placement == "spread"
        placement = _prepare_workload(plan, cells["nbodies"], {})[1]
        spread = _prepare_workload(plan, cells["mapreduce"], {})[1]
        assert placement is not None and spread is not None
        # random placement is scattered, spread is strided
        assert sorted(placement.tolist()) != placement.tolist()
        assert spread.tolist() == sorted(spread.tolist())

    def test_full_occupancy_is_identity(self):
        from repro.sweep.runner import _prepare_workload

        plan = DesignSpaceExplorer(64).plan(["allreduce"])
        assert plan.cells[0].placement == "spread"
        assert _prepare_workload(plan, plan.cells[0], {})[1] is None


class TestSkippedConfigs:
    def test_infeasible_subtori_are_skipped(self):
        explorer = DesignSpaceExplorer(64)  # t=8 needs 512 endpoints
        assert all(t != 8 for t, _ in explorer.configs)
        assert (8, 1) in explorer.skipped_configs

    def test_big_systems_keep_everything(self):
        explorer = DesignSpaceExplorer(512)
        assert len(explorer.configs) == 12
        assert explorer.skipped_configs == ()


class TestCommittedCsv:
    """The committed sweep CSVs load, legacy layouts included: a missing
    file fails the test."""

    @pytest.mark.parametrize("name,endpoints,workloads", [
        ("fig4_2048.csv", 2048, ["allreduce", "bisection", "nbodies",
                                 "nearneighbors", "unstructuredapp",
                                 "unstructuredhr"]),
        ("fig4_32768.csv", 32768, ["allreduce"]),
        ("fig5_2048.csv", 2048, ["flood", "mapreduce", "reduce", "sweep3d",
                                 "unstructuredmgnt"]),
    ])
    def test_loads_every_row(self, name, endpoints, workloads):
        path = Path(__file__).resolve().parent.parent / "results" / name
        table = ResultTable.from_csv(path.read_text(), endpoints)
        labels = [s.label()
                  for s in DesignSpaceExplorer(endpoints).topology_specs()]
        assert len(labels) == 26
        assert len(table.records) == 26 * len(workloads)
        assert table.workloads() == workloads
        for workload in workloads:
            assert [r.topology for r in table.records
                    if r.workload == workload] == labels
        for r in table.records:
            assert r.faults is None and r.routing == "deterministic"
            assert r.family == (r.topology.split("(")[0])
            assert (r.t is None) == (r.u is None) == \
                (r.family in ("fattree", "torus"))
            assert r.makespan > 0
