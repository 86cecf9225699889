"""Tests for the Monte-Carlo availability campaign runner and its CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.config import TopologySpec, WorkloadSpec
from repro.errors import ConfigError
from repro.service.store import ResultStore
from repro.sweep import (CAMPAIGN_SCHEMA_VERSION, campaign_table,
                         parse_seed_range, run_campaign,
                         write_campaign_report)
from repro.sweep.campaign import _select_topologies

ENDPOINTS = 64

#: The committed 512-endpoint campaign report (EXPERIMENTS.md).
GOLDEN = Path(__file__).resolve().parents[1] / "results" / "campaign_512.json"


class TestParseSeedRange:
    def test_half_open_range(self):
        assert parse_seed_range("0:8") == list(range(8))
        assert parse_seed_range("3:5") == [3, 4]

    def test_bare_integer(self):
        assert parse_seed_range("7") == [7]
        assert parse_seed_range(" 0 ") == [0]

    def test_empty_and_inverted_ranges_rejected(self):
        with pytest.raises(ConfigError, match="0 <= A < B"):
            parse_seed_range("5:5")
        with pytest.raises(ConfigError, match="0 <= A < B"):
            parse_seed_range("5:2")
        with pytest.raises(ConfigError, match="0 <= A < B"):
            parse_seed_range("-1:3")

    def test_garbage_rejected(self):
        for bad in ("", "a:b", "1:2:3", "1.5", "one"):
            with pytest.raises(ConfigError):
                parse_seed_range(bad)

    def test_negative_single_seed_rejected(self):
        with pytest.raises(ConfigError, match=">= 0"):
            parse_seed_range("-3")


class TestSelectTopologies:
    SPECS = [TopologySpec("torus"), TopologySpec("fattree"),
             TopologySpec("nesttree", {"t": 2, "u": 4}),
             TopologySpec("nesttree", {"t": 4, "u": 4})]

    def test_empty_filter_keeps_all(self):
        assert _select_topologies(self.SPECS, None) == self.SPECS
        assert _select_topologies(self.SPECS, []) == self.SPECS

    def test_family_matches_all_variants(self):
        chosen = _select_topologies(self.SPECS, ["nesttree"])
        assert [s.label() for s in chosen] == ["nesttree(2,4)",
                                               "nesttree(4,4)"]

    def test_exact_label_matches_one(self):
        chosen = _select_topologies(self.SPECS, ["nesttree(4,4)", "torus"])
        assert [s.label() for s in chosen] == ["torus", "nesttree(4,4)"]

    def test_unknown_selection_lists_choices(self):
        with pytest.raises(ConfigError, match="nesttree\\(2,4\\)"):
            _select_topologies(self.SPECS, ["hypercube"])


def tiny_campaign(**kw):
    defaults = dict(
        endpoints=ENDPOINTS,
        workload=WorkloadSpec("allreduce"),
        topologies=[TopologySpec("torus")],
        seeds=[0, 1, 2],
        cables=4,
        mttr_frac=0.25,
        bootstrap=200,
    )
    defaults.update(kw)
    return run_campaign(**defaults)


class TestRunCampaign:
    def test_report_structure(self):
        report = tiny_campaign()
        assert report["schema"] == CAMPAIGN_SCHEMA_VERSION
        assert report["endpoints"] == ENDPOINTS
        assert report["seeds"] == [0, 1, 2]
        (row,) = report["topologies"]
        assert row["topology"] == "torus"
        assert row["runs"] == 3
        assert row["completed"] + len(row["failed"]) == 3
        assert 0.0 <= row["availability"] <= 1.0
        assert row["healthy_makespan_s"] > 0
        for sample in row["by_seed"]:
            assert sample["slowdown"] >= 1.0
            assert sample["transient"]["fault_events"] >= 0
        if row["completed"]:
            lo, hi = row["slowdown_ci95"]
            assert lo <= row["slowdown_mean"] <= hi or row["completed"] == 1
            assert row["slowdown_max"] >= row["slowdown_mean"]
            assert row["transient_totals"]["fault_events"] > 0

    def test_deterministic_reports(self, tmp_path):
        a = tiny_campaign()
        b = tiny_campaign()
        assert a == b
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        write_campaign_report(a, pa)
        write_campaign_report(b, pb)
        assert pa.read_text() == pb.read_text()
        assert json.loads(pa.read_text()) == a

    def test_parallel_matches_serial(self, tmp_path):
        serial = tiny_campaign(seeds=[0, 1])
        parallel = tiny_campaign(seeds=[0, 1], jobs=2,
                                 checkpoint=tmp_path / "ck")
        assert serial == parallel
        # both phases share one store: 1 healthy + 2 Monte-Carlo cells
        store = ResultStore(tmp_path / "ck")
        assert len(store) + len(store.failures()) == 3

    def test_resume_from_checkpoint_skips_completed(self, tmp_path):
        ck = tmp_path / "ck"
        first = tiny_campaign(seeds=[0, 1], checkpoint=ck)
        lines = []
        resumed = tiny_campaign(seeds=[0, 1], checkpoint=ck, resume=True,
                                log=lines.append)
        assert resumed == first
        assert any("already complete" in ln for ln in lines)

    def test_resume_reruns_no_completed_cell(self, tmp_path, monkeypatch):
        import repro.sweep.runner as runner_mod

        ck = tmp_path / "ck"
        first = tiny_campaign(seeds=[0, 1, 2], checkpoint=ck)
        failed = {doc["key"] for doc in ResultStore(ck).failures().values()}
        ran: list[str] = []
        real = runner_mod._run_cell

        def counting(plan, cell, *args, **kwargs):
            ran.append(cell.key())
            return real(plan, cell, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "_run_cell", counting)
        resumed = tiny_campaign(seeds=[0, 1, 2], checkpoint=ck, resume=True)
        assert resumed == first
        # only cells recorded as failed (sidecar) are retried
        assert set(ran) <= failed

    def test_permanent_faults_via_zero_mttr(self):
        report = tiny_campaign(seeds=[0], mttr_frac=0.0)
        (row,) = report["topologies"]
        # permanent faults either complete degraded or fail typed; both
        # are legitimate availability samples
        assert row["completed"] + len(row["failed"]) == 1
        for rec in row["failed"]:
            assert "DegradedNetworkError" in rec["error"]["type"]

    def test_uplinks_dropped_on_baseline_families(self):
        report = tiny_campaign(seeds=[0], cables=1, uplinks=2)
        (row,) = report["topologies"]
        assert report["uplinks"] == 2
        # torus has no uplink ports: the cell still ran, cables-only
        assert row["completed"] + len(row["failed"]) == 1

    def test_validation_errors(self):
        with pytest.raises(ConfigError, match="at least one timeline seed"):
            tiny_campaign(seeds=[])
        with pytest.raises(ConfigError, match="distinct"):
            tiny_campaign(seeds=[1, 1])
        with pytest.raises(ConfigError, match="at least one transient"):
            tiny_campaign(cables=0)
        with pytest.raises(ConfigError, match="non-negative"):
            tiny_campaign(cables=-1)
        with pytest.raises(ConfigError, match="horizon_frac"):
            tiny_campaign(horizon_frac=0.0)
        with pytest.raises(ConfigError, match="bootstrap"):
            tiny_campaign(bootstrap=0)

    def test_matches_committed_512_report(self):
        """Golden: a slice of ``results/campaign_512.json`` reruns exactly.

        The fattree seeds park and later recover flows, the nesttree
        seeds reroute in-flight flows, so both recovery paths of the
        fault-timeline event source are pinned bit for bit.
        """
        golden = json.loads(GOLDEN.read_text())
        by_label = {row["topology"]: {s["seed"]: s for s in row["by_seed"]}
                    for row in golden["topologies"]}
        report = run_campaign(
            endpoints=512, workload=WorkloadSpec("allreduce"),
            topologies=[TopologySpec("nesttree", {"t": 2, "u": 4}),
                        TopologySpec("fattree")],
            seeds=[0, 1, 2], cables=8)
        parked = 0
        for row in report["topologies"]:
            assert row["failed"] == []
            assert [s["seed"] for s in row["by_seed"]] == [0, 1, 2]
            for sample in row["by_seed"]:
                assert sample == by_label[row["topology"]][sample["seed"]]
                parked += sample["transient"]["flows_parked"]
        assert parked > 0

    def test_table_renders_every_row(self):
        report = tiny_campaign(seeds=[0])
        table = campaign_table(report)
        assert "torus" in table
        assert "avail" in table


class TestCampaignCli:
    def test_campaign_smoke(self, tmp_path, capsys):
        report_path = tmp_path / "campaign.json"
        rc = main(["campaign", "--endpoints", "64",
                   "--workload", "allreduce", "--topologies", "torus",
                   "--seeds", "0:2", "--cables", "4",
                   "--bootstrap", "100", "--quiet",
                   "--report", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["schema"] == CAMPAIGN_SCHEMA_VERSION
        assert report["seeds"] == [0, 1]
        out = capsys.readouterr().out
        assert "Availability campaign" in out

    def test_campaign_rejects_bad_seed_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--endpoints", "64", "--workload",
                  "allreduce", "--seeds", "9:3", "--cables", "1"])
        assert exc.value.code == 2

    def test_campaign_rejects_zero_faults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--endpoints", "64", "--workload",
                  "allreduce", "--seeds", "0:2", "--cables", "0"])
        assert exc.value.code == 2

    def test_campaign_unknown_topology_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--endpoints", "64", "--workload",
                  "allreduce", "--topologies", "hypercube",
                  "--seeds", "0:2", "--cables", "1", "--quiet"])
        assert exc.value.code == 2
        assert "no design-space topology" in capsys.readouterr().err

    def test_resilience_seed_range(self, capsys):
        rc = main(["resilience", "--endpoints", "64",
                   "--workload", "allreduce", "--topologies", "torus",
                   "--fail-links", "1", "--seeds", "0:3", "--keep-going",
                   "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "seeds" in out

    def test_resilience_rejects_bad_seed_range(self):
        with pytest.raises(SystemExit) as exc:
            main(["resilience", "--endpoints", "64", "--workload",
                  "allreduce", "--fail-links", "1", "--seeds", "oops"])
        assert exc.value.code == 2
