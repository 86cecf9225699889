"""Bench: routing-policy study — does spreading move the uplink bottleneck?

Runs one hybrid design under every routing policy on a collective
(allreduce) and an irregular heavy workload (unstructuredhr), records
makespan, wall time and the per-tier peak utilisation from the
observability layer, and writes the machine-readable study to
``benchmarks/results/BENCH_routing.json`` — the record EXPERIMENTS.md
quotes its routing numbers from.

Two claims are asserted, not just measured:

* ``deterministic`` is bitwise the pre-policy engine (same makespan and
  event count as a ``simulate`` call without the ``routing`` argument);
* on the irregular workload, adaptive routing strictly reduces the
  hottest uplink's delivered bits (``peak_link_bits`` — the
  makespan-independent bottleneck measure: total traffic is fixed, so a
  lower per-link maximum IS the spreading) whenever the design actually
  has tied uplinks to spread over (t=4 subtori; the t=2 fallback design
  has a single minimal uplink per pair, so the assertion is scale-gated).
  ``peak_utilisation`` alone cannot discriminate here: the binding tier's
  hottest link is busy for the whole makespan by definition, so it reads
  ~1.0 under every policy.  The collective is measured but not asserted:
  its traffic is symmetric, so hash spreading (``ecmp``) *hurts* it while
  adaptive selection does not — that asymmetry is the study's point (see
  docs/routing.md).
"""

from __future__ import annotations

import json
import time

import pytest

from conftest import BENCH_ENDPOINTS, RESULTS_DIR, write_result
from repro.engine import simulate
from repro.obs import MetricsCollector, validate_snapshot
from repro.routing import ROUTING_POLICIES
from repro.topology import build as build_topology
from repro.workloads import build as build_workload

#: t=4 subtori have tied alternate uplinks (spreading freedom on the
#: uplinks tier); fall back to t=2 at scales 4^3 does not tile.
BENCH_T = 4 if BENCH_ENDPOINTS >= 128 and BENCH_ENDPOINTS % 64 == 0 else 2

WORKLOADS = ("allreduce", "unstructuredhr")


def _tier_spread(topo, link_bits):
    """Per-tier hottest-link bits and max/mean imbalance."""
    names, index = topo.link_tiers()
    out = {}
    for i, name in enumerate(names):
        bits = link_bits[index == i]
        peak = float(bits.max()) if bits.size else 0.0
        mean = float(bits.mean()) if bits.size else 0.0
        out[name] = {"peak_link_bits": peak,
                     "imbalance": peak / mean if mean > 0 else 1.0}
    return out


def _study():
    topo = build_topology("nesttree", BENCH_ENDPOINTS, t=BENCH_T, u=4)
    route_cache: dict = {}
    cells: dict[str, dict] = {}
    for wname in WORKLOADS:
        flows = build_workload(wname, BENCH_ENDPOINTS, seed=0).build()
        baseline = simulate(topo, flows, fidelity="approx",
                            route_cache=route_cache)
        per_policy: dict[str, dict] = {}
        for policy in ROUTING_POLICIES:
            collector = MetricsCollector(topo.links.num_links)
            t0 = time.perf_counter()
            result = simulate(topo, flows, fidelity="approx",
                              route_cache=route_cache, metrics=collector,
                              routing=policy)
            wall = time.perf_counter() - t0
            snap = result.metrics
            validate_snapshot(snap)
            assert snap["routing"] == policy
            per_policy[policy] = {
                "makespan_s": result.makespan,
                "events": result.events,
                "wall_seconds": wall,
                "tier_peak_utilisation": {
                    name: tier["peak_utilisation"]
                    for name, tier in snap["tiers"].items()},
                "tier_spread": _tier_spread(topo, collector.link_bits),
            }
        # the no-regression claim: deterministic IS the pre-policy engine
        assert per_policy["deterministic"]["makespan_s"] == baseline.makespan
        assert per_policy["deterministic"]["events"] == baseline.events
        cells[wname] = per_policy
    return cells


@pytest.mark.benchmark(group="routing")
def test_routing_policy_study(benchmark):
    cells = benchmark.pedantic(_study, rounds=1, iterations=1)

    if BENCH_T == 4:
        # tied uplinks exist: spreading must relieve the uplink bottleneck
        # on the irregular workload — the hottest uplink carries strictly
        # fewer bits, and the relieved bottleneck shows up as makespan
        hr = cells["unstructuredhr"]
        det_peak = hr["deterministic"]["tier_spread"]["uplinks"][
            "peak_link_bits"]
        assert hr["adaptive"]["tier_spread"]["uplinks"]["peak_link_bits"] \
            < det_peak
        assert hr["ecmp"]["tier_spread"]["uplinks"]["peak_link_bits"] \
            <= det_peak
        assert hr["adaptive"]["makespan_s"] < hr["deterministic"]["makespan_s"]

    doc = {
        "schema": "repro-bench-routing-v1",
        "endpoints": BENCH_ENDPOINTS,
        "topology": f"nesttree({BENCH_T},4)",
        "fidelity": "approx",
        "policies": list(ROUTING_POLICIES),
        "cells": cells,
    }
    write_result("BENCH_routing.json", json.dumps(doc, indent=2))
    assert (RESULTS_DIR / "BENCH_routing.json").exists()
