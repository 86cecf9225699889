"""CLI tests for ``repro optimize``, hybrid validation, and cost overrides.

The kill/resume test runs ``repro optimize`` as a real subprocess,
SIGKILLs it mid-search, and restarts with ``--resume``: the rerun must
finish from the sweep checkpoints and print the same front as an
uninterrupted run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.search.report import validate_report_file

REPO = Path(__file__).resolve().parent.parent
OPTIMIZE_64 = ["optimize", "--endpoints", "64", "--budget", "8",
               "--seed", "7", "--workloads", "reduce", "permutation",
               "--quiet"]


def stored(root: Path) -> dict[str, str]:
    """A checkpoint store's record files by name (complete writes only)."""
    return {p.name: p.read_text() for p in root.glob("??/*.json")}


def run_optimize(capsys, *extra: str) -> str:
    assert main([*OPTIMIZE_64, *extra]) == 0
    return capsys.readouterr().out


class TestHybridValidation:
    """Satellite: bad (t, u) fails with exit code 2 and the ranges listed."""

    @pytest.mark.parametrize("t,u", [("3", "2"),   # odd t with u>1
                                     ("2", "3"),   # u not a power of two
                                     ("0", "1"),   # t not positive
                                     ("8", "2")])  # 8^3 does not tile 64
    def test_bad_hybrid_params_exit_2(self, capsys, t, u):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--endpoints", "64", "--topology", "nesttree",
                  "--t", t, "--u", u, "--workload", "reduce"])
        assert exc.value.code == 2
        assert "valid hybrid parameters" in capsys.readouterr().err

    def test_hybrid_needs_both_t_and_u(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--endpoints", "64", "--topology", "nesttree",
                  "--t", "2", "--workload", "reduce"])
        assert exc.value.code == 2

    def test_spec_level_validation_is_typed(self):
        from repro.core.config import TopologySpec
        from repro.errors import ConfigError
        with pytest.raises(ConfigError, match="even subtorus side"):
            TopologySpec("nesttree", {"t": 3, "u": 2})
        with pytest.raises(ConfigError, match="does not tile"):
            TopologySpec("nesttree", {"t": 4, "u": 1}).validate_for(100)


class TestCostOverrides:
    """Satellite: --switch-cost/--switch-power thread the cost model."""

    def test_table2_override_scales_linearly(self, capsys):
        assert main(["table2", "--endpoints", "4096"]) == 0
        default = capsys.readouterr().out
        assert main(["table2", "--endpoints", "4096",
                     "--switch-cost", "1.5"]) == 0
        doubled = capsys.readouterr().out
        assert default != doubled
        # fattree reference line: cost exactly doubles, power unchanged
        def overheads(text):
            line = next(l for l in text.splitlines()
                        if l.startswith("Reference:"))
            return [float(f.lstrip("+").rstrip("%,"))
                    for f in line.split() if f.startswith("+")]
        d_cost, d_power = overheads(default)
        o_cost, o_power = overheads(doubled)
        assert o_cost == pytest.approx(2 * d_cost)
        assert o_power == pytest.approx(d_power)

    def test_negative_coefficient_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table2", "--switch-cost", "-1"])
        assert exc.value.code == 2

    def test_optimize_report_records_the_override(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        run_optimize(capsys, "--switch-cost", "1.5", "--switch-power", "0.5",
                     "--report", str(report))
        doc = validate_report_file(report)
        assert doc["meta"]["cost_model"] == {"switch_cost": 1.5,
                                             "switch_power": 0.5}
        # overriding the model moves the cost objective of every
        # non-baseline front member by exactly 2x
        default = tmp_path / "default.json"
        run_optimize(capsys, "--report", str(default))
        by_label = {r["label"]: r for r in validate_report_file(default)["front"]}
        for row in doc["front"]:
            if row["baseline"] or row["label"] not in by_label:
                continue
            assert row["objectives"]["cost"] == pytest.approx(
                2 * by_label[row["label"]]["objectives"]["cost"])


class TestOptimizeCli:
    def test_prints_front_and_summary(self, capsys):
        out = run_optimize(capsys)
        assert "Pareto front @ 64 endpoints" in out
        assert "fattree" in out and "torus" in out
        assert "rank2" in out

    def test_metrics_stream_per_rank(self, capsys, tmp_path):
        from repro.obs import validate_metrics_file
        run_optimize(capsys, "--metrics", str(tmp_path / "search"))
        metrics = tmp_path / "search.rank2.metrics.jsonl"
        assert metrics.exists()
        # one schema-valid obs record per full-fidelity evaluation cell
        assert validate_metrics_file(metrics) >= 2

    def test_stdout_and_report_are_deterministic(self, capsys, tmp_path):
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        out1 = run_optimize(capsys, "--report", str(r1))
        out2 = run_optimize(capsys, "--report", str(r2))
        assert out1 == out2
        assert r1.read_bytes() == r2.read_bytes()

    @pytest.mark.parametrize("argv,hint", [
        (["optimize", "--budget", "0"], "budget"),
        (["optimize", "--strategy", "bogus"], "strategy"),
        (["optimize", "--workloads", "nosuch"], "workload"),
        (["optimize", "--endpoints", "64", "--pilot-endpoints", "512"],
         "pilot"),
        (["optimize", "--fault-levels", "-1"], "fault"),
        (["optimize", "--resume"], "checkpoint"),
    ])
    def test_bad_arguments_exit_2(self, capsys, argv, hint):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert hint in capsys.readouterr().err.lower()


class TestKillResume:
    """Satellite: a killed search resumes from its sweep checkpoints."""

    CMD = ["optimize", "--endpoints", "512", "--budget", "12", "--seed", "3",
           "--workloads", "reduce", "permutation", "--quiet"]

    def spawn(self, checkpoint: Path, report: Path, *extra: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *self.CMD,
             "--checkpoint", str(checkpoint), "--report", str(report),
             *extra],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)

    def test_sigkilled_search_resumes_to_the_same_front(self, tmp_path):
        checkpoint = tmp_path / "search"
        report = tmp_path / "report.json"

        proc = self.spawn(checkpoint, report)
        # wait for full-fidelity cells to start landing, then kill
        deadline = time.monotonic() + 120
        while (time.monotonic() < deadline and proc.poll() is None
               and not len(stored(checkpoint)) >= 1):
            time.sleep(0.02)
        interrupted = proc.poll() is None
        if interrupted:
            proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)
        assert interrupted, "search finished before it could be killed"
        assert not report.exists()
        survivors = stored(checkpoint)
        assert len(survivors) >= 1  # >=1 record

        resumed = self.spawn(checkpoint, report, "--resume")
        out, _ = resumed.communicate(timeout=600)
        assert resumed.returncode == 0
        # pre-kill records were reused verbatim, not re-simulated
        after = stored(checkpoint)
        assert all(after[name] == text for name, text in survivors.items())
        doc = validate_report_file(report)

        # an uninterrupted run produces the identical report
        clean = self.spawn(tmp_path / "clean", tmp_path / "clean.json")
        clean_out, _ = clean.communicate(timeout=600)
        assert clean.returncode == 0
        assert out == clean_out
        assert doc == json.loads((tmp_path / "clean.json").read_text())
