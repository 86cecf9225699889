"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestInfo:
    def test_lists_inventory(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "nesttree" in out and "allreduce" in out


class TestTables:
    def test_table1_small(self, capsys):
        assert main(["table1", "--endpoints", "64", "--max-pairs", "500"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "(8,1)" in out

    def test_table2_small(self, capsys):
        assert main(["table2", "--endpoints", "4096"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out


class TestRun:
    def test_single_simulation(self, capsys):
        assert main(["run", "--endpoints", "64", "--topology", "nesttree",
                     "--t", "2", "--u", "2", "--workload", "allreduce"]) == 0
        out = capsys.readouterr().out
        assert "makespan=" in out and "nesttree" in out

    def test_task_subset_with_spread(self, capsys):
        assert main(["run", "--endpoints", "64", "--topology", "fattree",
                     "--workload", "mapreduce", "--tasks", "8"]) == 0
        assert "makespan=" in capsys.readouterr().out


class TestFigures:
    def test_fig5_subset(self, capsys, tmp_path):
        out_file = tmp_path / "fig.csv"
        assert main(["fig5", "--endpoints", "64", "--workloads", "reduce",
                     "--quiet", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "== reduce ==" in out and "shape checks" in out
        assert out_file.read_text().startswith("workload,topology")

    def test_fig4_subset(self, capsys):
        assert main(["fig4", "--endpoints", "64", "--workloads",
                     "allreduce", "--quiet"]) == 0
        assert "Figure 4" in capsys.readouterr().out


class TestResilience:
    def test_slowdown_table(self, capsys, tmp_path):
        out_file = tmp_path / "res.csv"
        assert main(["resilience", "--endpoints", "64",
                     "--workload", "reduce",
                     "--topologies", "torus", "fattree",
                     "--fail-links", "0", "2", "--fail-seed", "1",
                     "--quiet", "--keep-going",
                     "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "Resilience sweep: reduce @ 64 endpoints" in out
        assert "links=0" in out and "links=2" in out
        assert "torus" in out and "fattree" in out
        assert "1.00x" in out  # each family's healthy run is its baseline
        assert "2c+0u@s1" in out_file.read_text()

    def test_disconnected_cell_shows_as_failed(self, capsys):
        # t=2,u=8 leaves one uplink per subtorus, so a single dead uplink
        # port disconnects the upper fabric: the cell must surface as
        # "failed", not abort the sweep or silently vanish
        assert main(["resilience", "--endpoints", "64",
                     "--workload", "reduce", "--topologies", "nesttree",
                     "--fail-links", "0", "--fail-uplinks", "1",
                     "--quiet", "--keep-going"]) == 0
        assert "failed" in capsys.readouterr().out


class TestParsing:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["plot"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("flags", [
        [],
        ["--jobs", "3", "--checkpoint", "store", "--resume",
         "--cell-timeout", "2.5", "--metrics", "m.jsonl", "--quiet"],
    ])
    def test_runner_options_shared(self, flags):
        """fig4, campaign and optimize declare the runner options once:
        same dests, same defaults, same parsed values."""
        runner = ("jobs", "checkpoint", "resume", "cell_timeout", "metrics",
                  "quiet")
        parser = build_parser()
        seen = []
        for argv in (["fig4"], ["campaign", "--workload", "allreduce"],
                     ["optimize"]):
            args = vars(parser.parse_args(argv + flags))
            seen.append({k: args[k] for k in runner})
        assert seen[0] == seen[1] == seen[2]
        if flags:
            assert seen[0] == {"jobs": 3, "checkpoint": "store",
                               "resume": True, "cell_timeout": 2.5,
                               "metrics": "m.jsonl", "quiet": True}
        else:
            assert seen[0] == {"jobs": 1, "checkpoint": None,
                               "resume": False, "cell_timeout": None,
                               "metrics": None, "quiet": False}


class TestComparatorFamilies:
    def test_run_dragonfly(self, capsys):
        assert main(["run", "--endpoints", "72", "--topology", "dragonfly",
                     "--workload", "reduce"]) == 0
        assert "dragonfly" in capsys.readouterr().out

    def test_run_jellyfish(self, capsys):
        assert main(["run", "--endpoints", "64", "--topology", "jellyfish",
                     "--workload", "allreduce"]) == 0
        assert "jellyfish" in capsys.readouterr().out

    def test_run_thintree(self, capsys):
        assert main(["run", "--endpoints", "64", "--topology", "thintree",
                     "--workload", "reduce"]) == 0
        assert "thintree" in capsys.readouterr().out


class TestInputValidation:
    """Bad inputs exit with status 2 and name the valid choices."""

    def _error(self, capsys, argv) -> str:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return capsys.readouterr().err

    def test_unknown_sweep_workload(self, capsys):
        err = self._error(capsys, ["fig4", "--endpoints", "64",
                                   "--workloads", "nope"])
        assert "unknown workload 'nope'" in err
        assert "allreduce" in err and "sweep3d" in err  # choices listed

    def test_unknown_run_workload(self, capsys):
        err = self._error(capsys, ["run", "--endpoints", "64",
                                   "--topology", "fattree",
                                   "--workload", "zzz"])
        assert "unknown workload 'zzz'" in err and "reduce" in err

    def test_untileable_endpoints(self, capsys):
        err = self._error(capsys, ["fig4", "--endpoints", "100"])
        assert "multiple of 8" in err

    def test_negative_endpoints(self, capsys):
        err = self._error(capsys, ["fig5", "--endpoints", "-8"])
        assert "positive" in err

    def test_resume_requires_checkpoint(self, capsys):
        err = self._error(capsys, ["fig5", "--endpoints", "64", "--resume"])
        assert "--checkpoint" in err

    def test_bad_jobs(self, capsys):
        err = self._error(capsys, ["fig5", "--endpoints", "64",
                                   "--jobs", "0"])
        assert "--jobs" in err

    def test_negative_fail_links(self, capsys):
        err = self._error(capsys, ["fig5", "--endpoints", "64",
                                   "--fail-links", "-1"])
        assert "--fail-links" in err and ">= 0" in err

    def test_negative_fail_links_in_sweep_list(self, capsys):
        err = self._error(capsys, ["resilience", "--endpoints", "64",
                                   "--workload", "reduce",
                                   "--fail-links", "0", "4", "-2"])
        assert "--fail-links" in err and "-2" in err

    def test_negative_fail_uplinks(self, capsys):
        err = self._error(capsys, ["fig4", "--endpoints", "64",
                                   "--fail-uplinks", "-1"])
        assert "--fail-uplinks" in err

    def test_negative_fail_seed(self, capsys):
        err = self._error(capsys, ["fig5", "--endpoints", "64",
                                   "--fail-seed", "-3"])
        assert "--fail-seed" in err

    def test_zero_cell_timeout(self, capsys):
        err = self._error(capsys, ["fig5", "--endpoints", "64",
                                   "--cell-timeout", "0"])
        assert "--cell-timeout" in err and "positive" in err

    def test_unknown_resilience_workload(self, capsys):
        err = self._error(capsys, ["resilience", "--endpoints", "64",
                                   "--workload", "nope"])
        assert "unknown workload 'nope'" in err

    def test_unknown_resilience_family(self, capsys):
        err = self._error(capsys, ["resilience", "--endpoints", "64",
                                   "--workload", "reduce",
                                   "--topologies", "hypercube"])
        assert "unknown topology family 'hypercube'" in err
        assert "nesttree" in err  # choices listed

    @pytest.mark.parametrize("argv,named", [
        (["run", "--topology", "torus", "--workload", "reduce",
          "--endpoints", "64", "--tasks", "-3"], "--tasks"),
        # 0 tasks used to run silently on every endpoint
        (["run", "--topology", "torus", "--workload", "reduce",
          "--endpoints", "64", "--tasks", "0"], "--tasks"),
        (["run", "--topology", "torus", "--workload", "nbodies",
          "--endpoints", "64", "--tasks", "1"], "2 tasks, got 1"),
        (["fig4", "--endpoints", "64", "--workloads", "nbodies",
          "--quadratic-tasks", "0"], "--quadratic-tasks"),
        (["optimize", "--endpoints", "64", "--budget", "2", "--workloads",
          "nbodies", "--quadratic-tasks", "0"], "--quadratic-tasks"),
        (["table1", "--endpoints", "64", "--max-pairs", "-5"], "--max-pairs"),
        # 0 pairs used to print an all-zero table
        (["table1", "--endpoints", "64", "--max-pairs", "0"], "--max-pairs"),
        (["table1", "--endpoints", "64", "--seed", "-1"], "--seed"),
        (["run", "--topology", "torus", "--t", "2", "--workload", "reduce",
          "--endpoints", "64"], "--t"),
        (["table2", "--endpoints", "7"], "GHC fabric"),
        # a workload parameter check used to end in a ValueError traceback
        (["run", "--topology", "fattree", "--workload", "bisection",
          "--endpoints", "64", "--tasks", "3"], "even number of tasks"),
        # a worker's WorkloadError used to come back as a SimulationError
        # (exit 1) in parallel, but exit 2 serially
        (["fig4", "--endpoints", "64", "--workloads", "nbodies",
          "--quadratic-tasks", "1", "--quiet", "--jobs", "1"],
         "2 tasks, got 1"),
        (["fig4", "--endpoints", "64", "--workloads", "nbodies",
          "--quadratic-tasks", "1", "--quiet", "--jobs", "2"],
         "2 tasks, got 1"),
        # resilience replays --workload only; --workloads was ignored
        (["resilience", "--endpoints", "64", "--workload", "reduce",
          "--workloads", "nbodies"], "unrecognized arguments: --workloads"),
    ], ids=["run-tasks-negative", "run-tasks-zero", "run-nbodies-one-task",
            "fig4-quadratic-tasks", "optimize-quadratic-tasks",
            "table1-max-pairs-negative", "table1-max-pairs-zero",
            "table1-seed-negative", "run-t-on-torus", "table2-tiny",
            "run-bisection-odd-tasks", "fig4-nbodies-one-task-serial",
            "fig4-nbodies-one-task-parallel", "resilience-workloads-flag"])
    def test_bad_input_is_one_line_not_a_traceback(self, capsys, argv,
                                                   named):
        err = self._error(capsys, argv)
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and named in errors[0]
        assert "Traceback" not in err

    def test_batch_max_is_not_an_option(self, capsys, tmp_path):
        err = self._error(capsys, ["serve", "--store", str(tmp_path / "s"),
                                   "--batch-max", "8"])
        assert "unrecognized arguments: --batch-max 8" in err

    def test_run_time_failure_exits_1_with_one_line(self, capsys, tmp_path):
        out = tmp_path / "missing" / "res.csv"
        assert main(["resilience", "--endpoints", "64", "--workload",
                     "reduce", "--topologies", "torus", "--quiet",
                     "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro resilience: error:")
        assert str(out) in lines[0]

    @pytest.mark.parametrize("argv", [
        ["serve", "--endpoints", "64", "--port", "0", "--store"],
        ["fig4", "--endpoints", "64", "--workloads", "allreduce", "--quiet",
         "--checkpoint"],
        ["fig5", "--endpoints", "64", "--workloads", "reduce", "--quiet",
         "--checkpoint"],
        ["resilience", "--endpoints", "64", "--workload", "reduce",
         "--quiet", "--checkpoint"],
        ["campaign", "--endpoints", "64", "--workload", "reduce",
         "--topologies", "torus", "--seeds", "0:1", "--cables", "1",
         "--quiet", "--checkpoint"],
        ["optimize", "--endpoints", "64", "--budget", "2",
         "--workloads", "reduce", "--quiet", "--checkpoint"],
    ], ids=lambda argv: argv[0])
    def test_store_path_that_is_a_file(self, capsys, tmp_path, argv):
        # e.g. a checkpoint file left over from the old JSONL format
        path = tmp_path / "old.ck.jsonl"
        path.write_text('{"magic": "repro-sweep-v1"}\n')
        err = self._error(capsys, [*argv, str(path)])
        assert "not a directory" in err and str(path) in err
        assert "Traceback" not in err


class TestSweepFlags:
    def test_fig5_with_jobs_and_checkpoint(self, capsys, tmp_path):
        from repro.service.store import ResultStore

        ck = tmp_path / "ck"
        assert main(["fig5", "--endpoints", "64", "--workloads", "reduce",
                     "--quiet", "--jobs", "2",
                     "--checkpoint", str(ck)]) == 0
        assert "== reduce ==" in capsys.readouterr().out
        assert len(ResultStore(ck)) == 18  # one record per cell

    def test_fig5_with_fault_injection(self, capsys, tmp_path):
        out_file = tmp_path / "fig.csv"
        # --fail-seed 1 keeps every family connected at 64 endpoints;
        # --keep-going guards against a disconnecting draw regardless
        assert main(["fig5", "--endpoints", "64", "--workloads", "reduce",
                     "--quiet", "--fail-links", "2", "--fail-seed", "1",
                     "--keep-going", "--out", str(out_file)]) == 0
        assert "== reduce ==" in capsys.readouterr().out
        assert "2c+0u@s1" in out_file.read_text()

    def test_fig5_resume_from_checkpoint(self, capsys, tmp_path):
        ck = tmp_path / "ck"
        assert main(["fig5", "--endpoints", "64", "--workloads", "reduce",
                     "--quiet", "--checkpoint", str(ck)]) == 0
        first = capsys.readouterr().out
        assert main(["fig5", "--endpoints", "64", "--workloads", "reduce",
                     "--quiet", "--checkpoint", str(ck), "--resume"]) == 0
        assert capsys.readouterr().out == first  # fully replayed from disk


class TestProfile:
    def test_profile_prints_tier_and_timing_tables(self, capsys):
        assert main(["profile", "allreduce", "nesttree", "--t", "2",
                     "--u", "2", "--endpoints", "64"]) == 0
        out = capsys.readouterr().out
        for tier in ("lower_torus", "uplinks", "upper_fabric", "nic"):
            assert tier in out
        assert "Timing (wall-clock spans)" in out
        assert "Allocator:" in out

    def test_profile_flat_family(self, capsys):
        assert main(["profile", "reduce", "torus",
                     "--endpoints", "64"]) == 0
        out = capsys.readouterr().out
        assert "network" in out and "nic" in out

    def test_profile_unknown_workload(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "zzz", "torus", "--endpoints", "64"])
        assert exc.value.code == 2
        assert "unknown workload 'zzz'" in capsys.readouterr().err

    def test_profile_unknown_topology(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "reduce", "zzz", "--endpoints", "64"])
        assert exc.value.code == 2
        assert "unknown topology family 'zzz'" in capsys.readouterr().err


class TestSweepMetricsFlag:
    def test_fig4_metrics_stream(self, capsys, tmp_path):
        from repro.obs import validate_metrics_file

        path = tmp_path / "m.jsonl"
        assert main(["fig4", "--endpoints", "64", "--workloads",
                     "allreduce", "--quiet", "--metrics", str(path)]) == 0
        assert validate_metrics_file(path) == 18

    def test_resilience_metrics_stream(self, capsys, tmp_path):
        from repro.obs import validate_metrics_file

        path = tmp_path / "m.jsonl"
        assert main(["resilience", "--endpoints", "64", "--workload",
                     "reduce", "--topologies", "torus", "fattree",
                     "--fail-links", "0", "--quiet",
                     "--metrics", str(path)]) == 0
        assert validate_metrics_file(path) == 2
