"""Tests for sweep fault injection and parallel-runner hardening.

The worker-death tests patch ``_run_cell`` in the parent and rely on the
``fork`` start method to carry the patch into worker processes; they are
skipped on platforms without ``fork``.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import signal
import time

import pytest

import repro.sweep.runner as runner_mod
from repro.core import DesignSpaceExplorer
from repro.errors import SimulationError
from repro.service.store import (RESULT_SCHEMA_VERSION, ResultStore,
                                 ResultStoreWarning, content_digest)
from repro.sweep import run_sweep

ENDPOINTS = 64
#: Small design space (4 hybrids + 2 baselines) to keep these sweeps quick.
CONFIGS = ((2, 2), (2, 4))

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="worker-death tests need the fork start method")


def make_explorer(**kwargs) -> DesignSpaceExplorer:
    return DesignSpaceExplorer(ENDPOINTS, configs=CONFIGS,
                               quadratic_tasks=16, seed=0, **kwargs)


def fingerprint(table):
    return [(r.workload, r.topology, r.family, r.t, r.u, r.makespan,
             r.num_flows, r.events, r.reallocations, r.faults)
            for r in table.records]


def checkpoint_errors(path) -> list[dict]:
    return list(ResultStore(path).failures().values())


class TestDegradedSweeps:
    # fail_seed=1: keeps every family connected at this size (seed 0 cuts
    # a fattree endpoint's only edge link, which is a correct abort)
    def test_serial_and_parallel_identical_under_faults(self):
        serial = make_explorer().run(["reduce"], fail_links=2, fail_uplinks=1,
                                     fail_seed=1)
        parallel = make_explorer().run(["reduce"], fail_links=2,
                                       fail_uplinks=1, fail_seed=1, jobs=3)
        assert fingerprint(serial) == fingerprint(parallel)
        for r in serial.records:
            expected = 1 if r.family in ("nesttree", "nestghc") else 0
            assert r.faults == {"cables": 2, "uplinks": expected, "seed": 1}

    def test_healthy_and_degraded_keys_never_mix(self):
        healthy = make_explorer().plan(["reduce"])
        degraded = make_explorer().plan(["reduce"], fail_links=2)
        healthy_keys = {c.key() for c in healthy.cells}
        degraded_keys = {c.key() for c in degraded.cells}
        assert not healthy_keys & degraded_keys
        assert all("faults(2,0,s0)" in k for k in degraded_keys)

    def test_degraded_resume_ignores_healthy_records(self, tmp_path):
        ck = tmp_path / "sweep"
        make_explorer().run(["reduce"], checkpoint=str(ck))
        healthy_lines = len(ResultStore(ck))
        table = make_explorer().run(["reduce"], checkpoint=str(ck),
                                    resume=True, fail_links=2, fail_seed=1)
        # every degraded cell ran (stored), none satisfied by healthy rows
        assert len(ResultStore(ck)) == \
            healthy_lines + len(table.records)
        assert all(r.faults for r in table.records)


class TestKeepGoing:
    @pytest.fixture()
    def poisoned(self, monkeypatch):
        """Patch one cell (reduce on the torus baseline) to raise."""
        real = runner_mod._run_cell

        def failing(plan, cell, *args, **kwargs):
            if cell.topology.family == "torus":
                raise SimulationError("injected cell failure")
            return real(plan, cell, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "_run_cell", failing)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cell_failure_becomes_typed_error_record(self, tmp_path,
                                                     poisoned, jobs):
        ck = tmp_path / "sweep"
        table = make_explorer().run(["reduce"], jobs=jobs,
                                    checkpoint=str(ck), keep_going=True)
        assert all(r.family != "torus" for r in table.records)
        errors = checkpoint_errors(ck)
        assert len(errors) == 1
        assert errors[0]["topology"] == "torus"
        assert errors[0]["error"]["type"] == "SimulationError"
        assert "injected cell failure" in errors[0]["error"]["message"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_without_keep_going_failure_aborts(self, poisoned, jobs):
        with pytest.raises(SimulationError, match="injected cell failure"):
            make_explorer().run(["reduce"], jobs=jobs)

    def test_resume_retries_previously_failed_cells(self, tmp_path,
                                                    monkeypatch):
        ck = tmp_path / "sweep"
        real = runner_mod._run_cell

        def failing(plan, cell, *args, **kwargs):
            if cell.topology.family == "torus":
                raise SimulationError("injected cell failure")
            return real(plan, cell, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "_run_cell", failing)
        partial = make_explorer().run(["reduce"], checkpoint=str(ck),
                                      keep_going=True)
        monkeypatch.setattr(runner_mod, "_run_cell", real)
        full = make_explorer().run(["reduce"], checkpoint=str(ck),
                                   resume=True)
        assert len(full.records) == len(partial.records) + 1
        assert any(r.family == "torus" for r in full.records)

    def test_later_success_clears_failure_entry(self, tmp_path, poisoned,
                                                monkeypatch):
        ck = tmp_path / "sweep"
        messages: list[str] = []
        make_explorer().run(["reduce"], checkpoint=str(ck), keep_going=True)
        assert len(checkpoint_errors(ck)) == 1
        monkeypatch.undo()  # the torus cell succeeds from here on
        explorer = make_explorer(progress=True)
        explorer._log = messages.append
        explorer.run(["reduce"], checkpoint=str(ck), resume=True)
        assert any("retrying 1 cell(s)" in m for m in messages)
        assert checkpoint_errors(ck) == []


@needs_fork
class TestWorkerDeath:
    def test_sigkilled_worker_cells_are_requeued(self, tmp_path,
                                                 monkeypatch):
        """A SIGKILLed worker must not lose its cells: the sweep requeues
        them, respawns a replacement, and still returns every record."""
        flag = tmp_path / "killed-once"
        real = runner_mod._run_cell

        def kill_once(plan, cell, *args, **kwargs):
            if cell.topology.family == "fattree" and not flag.exists():
                flag.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return real(plan, cell, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "_run_cell", kill_once)
        table = make_explorer().run(["reduce"], jobs=2)
        assert flag.exists()  # the kill actually happened
        monkeypatch.setattr(runner_mod, "_run_cell", real)
        serial = make_explorer().run(["reduce"])
        assert fingerprint(table) == fingerprint(serial)

    def test_repeat_crasher_is_marked_failed_with_keep_going(
            self, tmp_path, monkeypatch):
        def always_kill(plan, cell, *args, **kwargs):
            if cell.topology.family == "fattree":
                os.kill(os.getpid(), signal.SIGKILL)
            return runner_mod.__dict__["_real_run_cell"](
                plan, cell, *args, **kwargs)

        monkeypatch.setitem(runner_mod.__dict__, "_real_run_cell",
                            runner_mod._run_cell)
        monkeypatch.setattr(runner_mod, "_run_cell", always_kill)
        ck = tmp_path / "sweep"
        table = make_explorer().run(["reduce"], jobs=2, checkpoint=str(ck),
                                    keep_going=True)
        assert all(r.family != "fattree" for r in table.records)
        errors = checkpoint_errors(ck)
        assert len(errors) == 1
        assert errors[0]["error"]["type"] == "WorkerCrashed"

    def test_exhausted_respawn_budget_raises(self, monkeypatch):
        """With no respawns allowed and every cell killing its worker,
        the sweep aborts with a typed error naming the spent budget."""
        def kill(plan, cell, *args, **kwargs):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(runner_mod, "MAX_RESPAWNS", 0)
        monkeypatch.setattr(runner_mod, "_run_cell", kill)
        plan = make_explorer().plan(["reduce"])
        lines: list[str] = []
        with pytest.raises(SimulationError,
                           match=r"respawn budget \(0\) is exhausted"):
            run_sweep(plan, jobs=2, log=lines.append)
        # the two first workers died and none replaced them
        assert sum(" died " in line for line in lines) == 2

    def test_cell_timeout_kills_stuck_worker(self, tmp_path, monkeypatch):
        real = runner_mod._run_cell

        def stuck(plan, cell, *args, **kwargs):
            if cell.topology.family == "fattree":
                time.sleep(60)
            return real(plan, cell, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "_run_cell", stuck)
        ck = tmp_path / "sweep"
        t0 = time.monotonic()
        table = make_explorer().run(["reduce"], jobs=2, checkpoint=str(ck),
                                    keep_going=True, cell_timeout=2.0)
        assert time.monotonic() - t0 < 50  # killed, not waited out
        assert all(r.family != "fattree" for r in table.records)
        errors = checkpoint_errors(ck)
        assert len(errors) == 1
        assert errors[0]["error"]["type"] == "CellTimeout"


class TestSerialTimeout:
    def test_serial_timeout_is_flagged_post_hoc(self, tmp_path, monkeypatch):
        real = runner_mod._run_cell

        def slow(plan, cell, *args, **kwargs):
            doc = real(plan, cell, *args, **kwargs)
            if cell.topology.family == "torus":
                doc["wall_seconds"] = 99.0
            return doc

        monkeypatch.setattr(runner_mod, "_run_cell", slow)
        ck = tmp_path / "sweep"
        table = make_explorer().run(["reduce"], checkpoint=str(ck),
                                    keep_going=True, cell_timeout=10.0)
        assert all(r.family != "torus" for r in table.records)
        assert checkpoint_errors(ck)[0]["error"]["type"] == "CellTimeout"


class TestCheckpointHardening:
    def plan(self):
        return make_explorer().plan(["reduce"])

    def record_paths(self, ck, plan):
        paths = []
        for cell in plan.cells:
            digest = content_digest(cell.fingerprint(), plan.meta())
            paths.append(ck / digest[:2] / f"{digest}.json")
        return paths

    def count_runs(self, monkeypatch) -> list[str]:
        ran: list[str] = []
        real = runner_mod._run_cell

        def counting(plan, cell, *args, **kwargs):
            ran.append(cell.key())
            return real(plan, cell, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "_run_cell", counting)
        return ran

    def test_mid_file_corruption_is_skipped_and_counted(self, tmp_path,
                                                        monkeypatch):
        ck = tmp_path / "ck"
        plan = self.plan()
        run_sweep(plan, checkpoint=str(ck))
        paths = self.record_paths(ck, plan)
        doc = json.loads(paths[1].read_text())
        paths[1].write_text(paths[1].read_text()[:40])       # torn
        paths[2].write_text(json.dumps(dict(doc, record={"key": "b"})))
        paths[3].write_text(json.dumps({"no_schema": True}))  # foreign
        ran = self.count_runs(monkeypatch)
        messages = []
        with pytest.warns(ResultStoreWarning):
            run_sweep(plan, checkpoint=str(ck), resume=True,
                      log=messages.append)
        # the three damaged records read as misses and were re-run
        assert sorted(ran) == sorted(c.key() for c in plan.cells[1:4])
        assert sum("removed 3 unreadable" in m for m in messages) == 1
        assert all(json.loads(p.read_text())["schema"]
                   == RESULT_SCHEMA_VERSION for p in paths)

    def test_error_records_load_as_schema_valid(self, tmp_path):
        ck = tmp_path / "ck"
        err = {"key": "e", "workload": "reduce", "topology": "torus",
               "faults": None,
               "error": {"type": "CellTimeout", "message": "too slow"}}
        store = ResultStore(ck)
        store.put_failure("d" * 64, err)
        assert ResultStore(ck).failures() == {"d" * 64: err}
        assert len(store) == 0  # a failure is never a stored result

    def test_silent_without_log_sink(self, tmp_path, monkeypatch):
        ck = tmp_path / "ck"
        plan = self.plan()
        run_sweep(plan, checkpoint=str(ck))
        self.record_paths(ck, plan)[0].write_text("garbage")
        ran = self.count_runs(monkeypatch)
        with pytest.warns(ResultStoreWarning):
            records = run_sweep(plan, checkpoint=str(ck), resume=True)
        assert ran == [plan.cells[0].key()]
        assert len(records) == len(plan.cells)


class TestRunnerGuards:
    def test_bad_cell_timeout_rejected(self):
        plan = make_explorer().plan(["reduce"])
        with pytest.raises(SimulationError, match="cell_timeout"):
            run_sweep(plan, cell_timeout=0)
