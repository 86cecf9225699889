"""Tests for the parallel, resumable sweep runner."""

from __future__ import annotations

import pytest

from repro.core import DesignSpaceExplorer
from repro.errors import ConfigError, SimulationError
from repro.service.store import (RESULT_FIELDS, ResultStore,
                                 ResultStoreWarning, content_digest)
from repro.sweep import run_sweep
from repro.sweep.runner import _group_cells

ENDPOINTS = 64
WORKLOADS = ["reduce", "allreduce"]


def make_explorer(**kwargs) -> DesignSpaceExplorer:
    return DesignSpaceExplorer(ENDPOINTS, quadratic_tasks=16, seed=0,
                               **kwargs)


def table_fingerprint(table):
    """Everything except wall-clock, which legitimately varies."""
    return [(r.workload, r.topology, r.family, r.t, r.u, r.makespan,
             r.num_flows, r.events, r.reallocations)
            for r in table.records]


@pytest.fixture(scope="module")
def serial_table():
    return make_explorer().run(WORKLOADS)


def record_paths(store_dir, plan):
    """Each plan cell's record file in a checkpoint store, plan order."""
    paths = []
    for cell in plan.cells:
        digest = content_digest(cell.fingerprint(), plan.meta())
        paths.append(store_dir / digest[:2] / f"{digest}.json")
    return paths


class TestParallelMatchesSerial:
    def test_jobs4_identical_records(self, serial_table):
        parallel = make_explorer().run(WORKLOADS, jobs=4)
        assert table_fingerprint(parallel) == table_fingerprint(serial_table)

    def test_more_jobs_than_topologies(self, serial_table):
        # workers beyond the topology-group count must not break anything
        parallel = make_explorer().run(["reduce"], jobs=64)
        serial = [f for f in table_fingerprint(serial_table)
                  if f[0] == "reduce"]
        assert table_fingerprint(parallel) == serial


class TestCheckpointResume:
    def test_checkpoint_records_every_cell(self, tmp_path, serial_table):
        ck = tmp_path / "sweep"
        make_explorer().run(WORKLOADS, jobs=2, checkpoint=str(ck))
        store = ResultStore(ck)
        docs = [store.get(d) for d in store.digests()]
        assert all(doc["meta"]["endpoints"] == ENDPOINTS for doc in docs)
        assert len(docs) == len(serial_table.records)

    def test_resume_skips_checkpointed_cells(self, tmp_path, serial_table,
                                             monkeypatch):
        import repro.sweep.runner as runner_mod

        ck = tmp_path / "sweep"
        make_explorer().run(WORKLOADS, checkpoint=str(ck))
        total = len(serial_table.records)

        # simulate a mid-sweep kill: drop the last 5 cells, re-adding the
        # first of them as a record torn mid-write
        torn, *dropped = record_paths(ck, make_explorer().plan(WORKLOADS))[-5:]
        for path in dropped:
            path.unlink()
        torn.write_text(torn.read_text()[:30])

        recomputed = []
        real_run_cell = runner_mod._run_cell

        def counting_run_cell(plan, cell, *args, **kwargs):
            recomputed.append(cell.key())
            return real_run_cell(plan, cell, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "_run_cell", counting_run_cell)
        with pytest.warns(ResultStoreWarning):  # the torn record
            resumed = make_explorer().run(WORKLOADS, checkpoint=str(ck),
                                          resume=True)
        # exactly the 4 dropped cells plus the torn one, nothing else
        assert len(recomputed) == 5
        assert table_fingerprint(resumed) == table_fingerprint(serial_table)

    def test_resume_with_all_cells_done_recomputes_nothing(
            self, tmp_path, serial_table, monkeypatch):
        import repro.sweep.runner as runner_mod

        ck = tmp_path / "sweep"
        make_explorer().run(WORKLOADS, checkpoint=str(ck))
        monkeypatch.setattr(
            runner_mod, "_run_cell",
            lambda *a, **k: pytest.fail("cell recomputed on full resume"))
        resumed = make_explorer().run(WORKLOADS, checkpoint=str(ck),
                                      resume=True)
        assert table_fingerprint(resumed) == table_fingerprint(serial_table)

    def test_without_resume_checkpoint_is_replaced(self, tmp_path,
                                                    monkeypatch):
        import repro.sweep.runner as runner_mod

        ck = tmp_path / "sweep"
        plan = make_explorer().plan(["reduce"])
        make_explorer().run(["reduce"], checkpoint=str(ck))
        first = sorted(ResultStore(ck).digests())
        real_run_cell = runner_mod._run_cell

        def marked_run_cell(*args, **kwargs):
            return dict(real_run_cell(*args, **kwargs), wall_seconds=-1.0)

        monkeypatch.setattr(runner_mod, "_run_cell", marked_run_cell)
        make_explorer().run(["reduce"], checkpoint=str(ck))
        store = ResultStore(ck)
        assert sorted(store.digests()) == first  # rewritten, not grown
        # every cell re-simulated and its record overwritten
        assert all(store.get(content_digest(c.fingerprint(), plan.meta()))
                   ["record"]["wall_seconds"] == -1.0 for c in plan.cells)

    def test_meta_mismatch_rejected(self, tmp_path, monkeypatch):
        """Another scale's records share the directory but never answer:
        the plan globals are folded into every digest."""
        import repro.sweep.runner as runner_mod

        ck = tmp_path / "sweep"
        first = make_explorer().run(["reduce"], checkpoint=str(ck))
        recomputed = []
        real_run_cell = runner_mod._run_cell

        def counting_run_cell(plan, cell, *args, **kwargs):
            recomputed.append(cell.key())
            return real_run_cell(plan, cell, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "_run_cell", counting_run_cell)
        other = DesignSpaceExplorer(128, quadratic_tasks=16, seed=0)
        table = other.run(["reduce"], checkpoint=str(ck), resume=True)
        assert len(recomputed) == len(table.records)  # all misses
        assert len(ResultStore(ck)) == \
            len(first.records) + len(table.records)

    def test_non_checkpoint_file_rejected(self, tmp_path):
        ck = tmp_path / "bogus.jsonl"
        ck.write_text("not json at all\n")
        with pytest.raises(ConfigError, match="not a directory") as exc:
            ResultStore(ck)
        assert str(ck) in str(exc.value)
        plan = make_explorer().plan(["reduce"])
        with pytest.raises(ConfigError, match="not a directory"):
            run_sweep(plan, checkpoint=str(ck), resume=True)

    def test_missing_file_loads_empty(self, tmp_path):
        store = ResultStore(tmp_path / "absent")
        assert len(store) == 0 and store.failures() == {}


class TestRunnerGuards:
    def test_resume_requires_checkpoint(self):
        plan = make_explorer().plan(["reduce"])
        with pytest.raises(SimulationError, match="checkpoint"):
            run_sweep(plan, resume=True)

    def test_jobs_must_be_positive(self):
        plan = make_explorer().plan(["reduce"])
        with pytest.raises(SimulationError, match="jobs"):
            run_sweep(plan, jobs=0)


class TestGroupCells:
    def test_groups_cover_all_cells_without_splitting(self):
        plan = make_explorer().plan(WORKLOADS)
        groups = _group_cells(list(plan.cells))
        seen = []
        owners: dict[str, int] = {}
        for i, cells in enumerate(groups):
            labels = {c.topology.label() for c in cells}
            assert len(labels) == 1  # topology groups are never split
            label = labels.pop()
            assert label not in owners  # one group per topology
            owners[label] = i
            seen.extend(c.key() for c in cells)
        assert sorted(seen) == sorted(c.key() for c in plan.cells)

    def test_largest_group_first(self):
        plan = make_explorer().plan(WORKLOADS)
        sizes = [len(g) for g in _group_cells(list(plan.cells))]
        assert sizes == sorted(sizes, reverse=True)


class TestSweepContext:
    """A sweep process's caches: the serial path keeps every topology's,
    a worker drops them when the topology label changes."""

    @pytest.mark.parametrize("keep", [True, False], ids=["serial", "worker"])
    def test_retention(self, monkeypatch, keep):
        import repro.sweep.runner as runner_mod

        plan = make_explorer().plan(["reduce"])
        by_label = {}
        for cell in plan.cells:
            by_label.setdefault(cell.topology.label(), cell)
        a, b = list(by_label.values())[:2]
        seen = []
        monkeypatch.setattr(
            runner_mod, "_run_cell",
            lambda plan, cell, topo, flows, routes, **kw:
            seen.append((topo, routes)))
        ctx = runner_mod._SweepContext(plan, keep_topologies=keep)
        for cell in (a, b, a):
            ctx.run(cell)
        (topo_a, routes_a), (topo_b, routes_b), (topo_a2, routes_a2) = seen
        assert topo_a is not topo_b and routes_a is not routes_b
        assert (topo_a2 is topo_a) == keep
        assert (routes_a2 is routes_a) == keep


class TestResultsOut:
    """results_out hands back the raw cell documents the store keeps."""

    def test_collects_raw_docs_for_every_cell(self):
        plan = make_explorer().plan(["reduce"])
        docs: dict[str, dict] = {}
        records = run_sweep(plan, results_out=docs)
        assert set(docs) == {c.key() for c in plan.cells}
        for cell, rec in zip(plan.cells, records):
            doc = docs[cell.key()]
            assert RESULT_FIELDS <= doc.keys()
            assert doc["makespan"] == rec.makespan

    def test_includes_resumed_cells(self, tmp_path):
        plan = make_explorer().plan(["reduce"])
        ck = tmp_path / "ck"
        run_sweep(plan, checkpoint=str(ck))
        docs: dict[str, dict] = {}
        run_sweep(plan, checkpoint=str(ck), resume=True, results_out=docs)
        # nothing re-simulated, yet every cell's document is delivered
        assert set(docs) == {c.key() for c in plan.cells}


class TestMetricsAppend:
    """metrics_append=True accumulates across runs; default regenerates."""

    def test_append_accumulates_across_runs(self, tmp_path):
        from repro.obs.stream import validate_metrics_file

        path = tmp_path / "metrics.jsonl"
        p1 = make_explorer().plan(["reduce"])
        p2 = make_explorer().plan(["allreduce"])
        run_sweep(p1, metrics_path=str(path), metrics_append=True)
        n1 = validate_metrics_file(path)
        assert n1 == len(p1.cells)
        run_sweep(p2, metrics_path=str(path), metrics_append=True)
        assert validate_metrics_file(path) == n1 + len(p2.cells)

    def test_default_regenerates(self, tmp_path):
        from repro.obs.stream import validate_metrics_file

        path = tmp_path / "metrics.jsonl"
        plan = make_explorer().plan(["reduce"])
        run_sweep(plan, metrics_path=str(path))
        run_sweep(plan, metrics_path=str(path))
        assert validate_metrics_file(path) == len(plan.cells)
