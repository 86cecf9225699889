"""Tests for the multi-fidelity ladder and its rank-0 static cache."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.search.fidelity import (RANK_FULL, RANK_PILOT, RANK_STATIC,
                                   FidelityLadder, LadderEvaluator)
from repro.search.space import Candidate
from repro.service.store import ResultStore
from repro.topology.cost import CostModel, upper_tier_switches

WORKLOADS = ("reduce", "permutation")


def ladder_64(**kw) -> FidelityLadder:
    return FidelityLadder.for_scale(64, WORKLOADS, static_pairs=300, **kw)


class TestLadder:
    def test_pilot_defaults_to_512_cap(self):
        assert FidelityLadder.for_scale(4096, WORKLOADS).pilot_endpoints == 512
        assert FidelityLadder.for_scale(64, WORKLOADS).pilot_endpoints == 64

    def test_equal_scales_collapse_rank1(self):
        collapsed = ladder_64()
        assert collapsed.collapsed()
        assert collapsed.sim_ranks() == (RANK_FULL,)
        tall = FidelityLadder.for_scale(512, WORKLOADS, pilot_endpoints=64)
        assert not tall.collapsed()
        assert tall.sim_ranks() == (RANK_PILOT, RANK_FULL)
        assert tall.rank_scale(RANK_PILOT) == 64
        assert tall.rank_scale(RANK_FULL) == 512

    def test_pilot_above_target_rejected(self):
        with pytest.raises(ConfigError, match="exceeds"):
            FidelityLadder.for_scale(64, WORKLOADS, pilot_endpoints=512)

    def test_empty_workload_set_rejected(self):
        with pytest.raises(ConfigError, match="workload"):
            FidelityLadder.for_scale(64, ())


class TestStaticCache:
    def test_repeated_candidates_never_rebuild(self):
        ev = LadderEvaluator(ladder_64())
        cand = Candidate("nesttree", 2, 2)
        first = ev.rank0([cand])
        builds = ev.static_builds  # candidate + fattree reference
        assert builds == 2 and ev.static_cache_hits == 0
        second = ev.rank0([cand, cand])
        assert second[cand.label()] == first[cand.label()]
        assert ev.static_builds == builds  # nothing rebuilt...
        # ...every lookup was a hit: the fattree reference + 2x candidate
        assert ev.static_cache_hits == 3

    def test_fault_levels_share_the_healthy_metrics(self):
        ev = LadderEvaluator(ladder_64())
        healthy = Candidate("nestghc", 2, 4)
        degraded = Candidate("nestghc", 2, 4, fail_links=2)
        ev.rank0([healthy])
        builds = ev.static_builds
        out = ev.rank0([degraded])
        assert ev.static_builds == builds
        # fattree reference hit + the degraded candidate reusing the
        # healthy topology's metrics
        assert ev.static_cache_hits == 2
        assert out[degraded.label()] is not None

    def test_proxy_objectives_carry_real_cost_model(self):
        model = CostModel(switch_cost=1.5, switch_power=0.5)
        ev = LadderEvaluator(ladder_64(), cost_model=model)
        cand = Candidate("nesttree", 2, 2)
        objectives = ev.rank0([cand])[cand.label()]
        switches = upper_tier_switches("nesttree", 64, 2)
        assert objectives.cost == pytest.approx(switches * 1.5 / 64)
        assert objectives.power == pytest.approx(switches * 0.5 / 64)


class TestSimulationRanks:
    def test_full_rank_normalises_to_fattree(self):
        ev = LadderEvaluator(ladder_64())
        cands = [Candidate("nesttree", 2, 2), Candidate("nestghc", 2, 4)]
        out = ev.simulate_rank(cands, RANK_FULL)
        assert set(out) == {c.label() for c in cands}
        for objectives in out.values():
            assert objectives is not None and objectives.makespan > 0
        refs = ev.reference_makespans[RANK_FULL]
        assert set(WORKLOADS) <= set(refs["fattree"])
        assert set(WORKLOADS) <= set(refs["torus"])

    def test_static_rank_is_not_simulatable(self):
        ev = LadderEvaluator(ladder_64())
        with pytest.raises(ConfigError, match="not a simulation rank"):
            ev.simulate_rank([], RANK_STATIC)

    def test_checkpoints_are_per_rank(self, tmp_path):
        # both ranks share one store; a rank's records carry its scale
        base = tmp_path / "search"
        ladder = ladder_64()
        ev = LadderEvaluator(ladder, checkpoint=base)
        cand = Candidate("nesttree", 2, 2)
        ev.simulate_rank([cand], RANK_FULL)
        store = ResultStore(base)
        scales = {store.get(d)["meta"]["endpoints"] for d in store.digests()}
        assert scales == {ladder.rank_scale(RANK_FULL)}

    def test_resume_skips_completed_cells(self, tmp_path):
        base = tmp_path / "search"
        cand = Candidate("nesttree", 2, 2)
        first = LadderEvaluator(ladder_64(), checkpoint=base)
        out1 = first.simulate_rank([cand], RANK_FULL)

        def contents():
            return {p.name: p.read_text() for p in base.glob("*/*.json")}

        lines_after_first = contents()
        second = LadderEvaluator(ladder_64(), checkpoint=base, resume=True)
        out2 = second.simulate_rank([cand], RANK_FULL)
        assert out2 == out1
        # every cell came from the checkpoint: nothing was rewritten
        assert contents() == lines_after_first
