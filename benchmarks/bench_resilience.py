"""Bench: transient-fault recovery-path overhead vs a healthy run.

Three measured cells on the torus at ``REPRO_BENCH_ENDPOINTS``:

* ``healthy`` — the engine with no timeline;
* ``empty_timeline`` — the engine handed a timeline with zero events,
  which must be *bitwise* the healthy run (asserted, not just measured):
  the fault event source may cost wall time but never fidelity;
* ``transient`` — a seeded mid-run fail/repair timeline sized to the
  healthy makespan, reporting the recovery counters alongside the
  wall-time and makespan overhead.

The machine-readable study lands in
``benchmarks/results/BENCH_resilience.json`` — the record EXPERIMENTS.md
quotes its availability-study overhead numbers from, schema-validated in
CI like ``BENCH_engine``/``BENCH_routing``.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from conftest import BENCH_ENDPOINTS, RESULTS_DIR, write_result
from repro.engine import simulate
from repro.topology import FaultTimeline, build as build_topology
from repro.workloads import build as build_workload

#: Transient cables cut (and later repaired) in the measured timeline —
#: scaled down with the machine so tiny CI runs stay connected.
BENCH_CABLES = max(2, BENCH_ENDPOINTS // 64)


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _study():
    topo = build_topology("torus", BENCH_ENDPOINTS)
    flows = build_workload("allreduce", BENCH_ENDPOINTS).build()
    route_cache: dict = {}

    healthy, healthy_wall = _timed(
        lambda: simulate(topo, flows, fidelity="approx",
                         route_cache=route_cache))
    empty, empty_wall = _timed(
        lambda: simulate(topo, flows, fidelity="approx",
                         route_cache=route_cache,
                         fault_timeline=FaultTimeline()))
    # the no-regression claim: an empty timeline is bitwise invisible
    assert empty.makespan == healthy.makespan
    assert np.array_equal(empty.completion_times, healthy.completion_times)
    assert empty.events == healthy.events

    timeline = FaultTimeline.sample(
        topo, cables=BENCH_CABLES, seed=0,
        horizon=healthy.makespan * 0.8, mttr=healthy.makespan * 0.2)
    transient, transient_wall = _timed(
        lambda: simulate(topo, flows, fidelity="approx",
                         route_cache=route_cache, fault_timeline=timeline))
    assert transient.transient["fault_events"] > 0

    return {
        "healthy": {"makespan_s": healthy.makespan,
                    "events": healthy.events,
                    "wall_seconds": healthy_wall},
        "empty_timeline": {"makespan_s": empty.makespan,
                           "events": empty.events,
                           "wall_seconds": empty_wall},
        "transient": {"makespan_s": transient.makespan,
                      "events": transient.events,
                      "wall_seconds": transient_wall,
                      "counters": transient.transient,
                      "slowdown": transient.makespan / healthy.makespan,
                      "wall_overhead": transient_wall / healthy_wall
                      if healthy_wall > 0 else None},
    }


@pytest.mark.benchmark(group="resilience")
def test_transient_recovery_overhead(benchmark):
    cells = benchmark.pedantic(_study, rounds=1, iterations=1)

    # degraded-then-healed runs can only take longer than the healthy one
    assert cells["transient"]["makespan_s"] >= cells["healthy"]["makespan_s"]
    assert cells["transient"]["counters"]["flows_rerouted"] >= 0

    doc = {
        "schema": "repro-bench-resilience-v1",
        "endpoints": BENCH_ENDPOINTS,
        "topology": "torus",
        "workload": "allreduce",
        "fidelity": "approx",
        "cables": BENCH_CABLES,
        "cells": cells,
    }
    write_result("BENCH_resilience.json", json.dumps(doc, indent=2))
    assert (RESULTS_DIR / "BENCH_resilience.json").exists()
