"""Regenerate ``reference.json``: every cell's outputs and lower bound.

    python3 perfbench/make_reference.py [SECTION ...]   # from the repo root

Regenerates the named workload sections (all three by default) and keeps
the others.  The whole file takes about 20 minutes on one core.  A run is
correct only when its cells match this file within ``cells.TOLERANCE``,
so regenerate it only when a change is *meant* to alter simulated
outputs, and say so in the change.

* ``fig4-cold-sweep``: all 26 allreduce cells.  allreduce draws nothing
  from the seed (checked here), so the entries hold for every run seed.
* ``event-tail``: every plan seed a run can use: a run at seed ``s``
  uses plan seed ``s % TAIL_PLAN_SEEDS``.
* ``serve-explore``: all 312 cells, the ones the catalogue leaves out
  too.  The service runs at plan seed 0 whatever the load seed, so the
  entries hold for every run seed.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import cells  # noqa: E402
import workloads as wl  # noqa: E402


def entry(topology, flows, placement, routing: str, cache: dict) -> dict:
    from repro.engine import simulate

    result = simulate(topology, flows, placement=placement, fidelity="approx",
                      route_cache=cache, routing=routing)
    return {"makespan": result.makespan, "events": result.events,
            "reallocations": result.reallocations,
            "num_flows": result.num_flows,
            "bound": cells.lower_bound(topology, flows, placement, routing,
                                       cache)}


def figure_cells(endpoints: int, workloads, routing: str):
    from repro.core.explorer import DesignSpaceExplorer

    explorer = DesignSpaceExplorer(endpoints, fidelity="approx", seed=0,
                                   progress=False)
    return explorer.plan(workloads, routing=routing).cells


def fig4() -> dict:
    scale = wl.FULL
    out = {}
    for cell in figure_cells(scale.fig4_endpoints, ["allreduce"],
                             "deterministic"):
        a, _ = cells.prepare(cell.workload, scale.fig4_endpoints,
                             cell.placement, 0)
        b, _ = cells.prepare(cell.workload, scale.fig4_endpoints,
                             cell.placement, 1)
        if not (np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)
                and np.array_equal(a.size, b.size)):
            raise SystemExit("allreduce flows depend on the seed")
        topology = cell.topology.build(scale.fig4_endpoints)
        label = cell.topology.label()
        out[cells.cell_key("allreduce", label, "approx")] = entry(
            topology, a, None, "deterministic", {})
        print(f"fig4 {label}", flush=True)
    return {"seeds": "any", "cells": out}


def event_tail() -> dict:
    by_seed = {}
    for seed in range(wl.TAIL_PLAN_SEEDS):
        tail = wl.EventTail(wl.FULL, seed, None)
        tail.setup()
        m = tail.measure(0.0)
        out = {}
        for rec in m.records:
            if rec["problems"]:
                raise SystemExit(f"event-tail cell failed: {rec}")
            flows, _, bound = tail.inputs[rec["workload"]]
            out[cells.cell_key(rec["workload"], rec["topology"],
                               rec["fidelity"])] = {
                "makespan": rec["makespan"], "events": rec["events"],
                "reallocations": rec["reallocations"],
                "num_flows": flows.num_flows, "bound": bound}
        by_seed[str(seed)] = out
        print(f"event-tail plan seed {seed}", flush=True)
    return {"seeds": f"seed % {wl.TAIL_PLAN_SEEDS}", "cells": by_seed}


def serve() -> dict:
    scale = wl.FULL
    endpoints = scale.serve_endpoints
    out = {}
    topologies: dict = {}
    for routing in wl.SERVE_ROUTINGS:
        caches: dict = {}
        for cell in figure_cells(endpoints, wl.SERVE_WORKLOADS, routing):
            label = cell.topology.label()
            if label not in topologies:
                topologies[label] = cell.topology.build(endpoints)
            flows, placement = cells.prepare(cell.workload, endpoints,
                                             cell.placement, 0)
            out[cells.cell_key(cell.workload.name, label, "approx",
                               routing)] = entry(
                topologies[label], flows, placement, routing,
                caches.setdefault(label, {}))
        print(f"serve {routing} done", flush=True)
    return {"seeds": "any", "cells": out}


SECTIONS = {"fig4-cold-sweep": fig4, "event-tail": event_tail,
            "serve-explore": serve}


def main(argv: list[str]) -> int:
    """Regenerate the named sections (all by default), keeping the rest."""
    t0 = time.perf_counter()
    names = argv or list(SECTIONS)
    unknown = set(names) - set(SECTIONS)
    if unknown:
        raise SystemExit(f"unknown sections {sorted(unknown)}")
    doc = cells.load_reference() if cells.REFERENCE_PATH.is_file() else {}
    doc["tolerance"] = cells.TOLERANCE
    for name in names:
        doc[name] = SECTIONS[name]()
    with open(cells.REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {cells.REFERENCE_PATH} in {time.perf_counter() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
