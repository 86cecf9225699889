"""Cell inputs, lower bounds and the per-cell correctness check.

Shared by the workloads and by ``make_reference.py``, so the committed
reference and a benchmark run build every cell the same way the sweep
runner does.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: How far a run may sit from the committed reference and still count as
#: correct.  Makespans are relative; event and reallocation counts get a
#: little room so a change to completion batching is not a failure.
TOLERANCE = {
    "makespan_rel": 1e-6,
    "count_rel": 0.01,
    # approx mode may oversubscribe a link by up to its churn bound
    "bound_rel": 0.05,
}


def cell_key(workload: str, topology: str, fidelity: str,
             routing: str = "deterministic") -> str:
    return f"{workload}|{topology}|{fidelity}|{routing}"


def prepare(wspec, endpoints: int, placement_policy: str, seed: int):
    """``(flows, placement)`` exactly as the sweep runner prepares them."""
    from repro.mapping import placement as placement_mod

    flows = wspec.build(endpoints, seed=seed).build()
    tasks = wspec.resolve_tasks(endpoints)
    placement = None if tasks == endpoints else placement_mod.by_name(
        placement_policy, tasks, endpoints, seed=seed)
    return flows, placement


def lower_bound(topology, flows, placement, routing: str,
                route_cache: dict) -> float:
    """``repro.engine.bottleneck_lower_bound`` over the routes the engine
    used, read back from its route cache (so call after simulating)."""
    from repro.engine import bottleneck_lower_bound
    from repro.routing.policy import ecmp_index

    n = flows.num_flows
    place = np.arange(flows.num_tasks) if placement is None else placement
    src, dst = place[flows.src], place[flows.dst]
    routes = []
    for fid in range(n):
        s, d = int(src[fid]), int(dst[fid])
        if s == d:
            routes.append(np.empty(0, dtype=np.int64))
        elif routing == "deterministic":
            routes.append(route_cache[(s, d)])
        else:
            cands = route_cache[("cands", s, d, None)]
            routes.append(cands[ecmp_index(fid, s, d, len(cands))])
    ptr = np.zeros(n + 1, dtype=np.int64)
    ptr[1:] = np.cumsum([r.shape[0] for r in routes])
    entries = np.concatenate(routes) if n else np.empty(0, dtype=np.int64)
    return bottleneck_lower_bound(entries, ptr, topology.links.capacities,
                                  flows.size)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check_cell(record: dict, reference: dict | None, key: str,
               bound: float | None = None) -> list[str]:
    """Problems with one cell's outputs (empty when correct).

    ``record`` holds ``completed``, ``makespan``, ``events`` and
    ``reallocations``.  ``reference`` is the committed ``cells`` section
    the run is held to (``None`` when its seed has none), and ``key`` the
    cell's entry there.  ``bound`` is the cell's bottleneck lower bound;
    it defaults to the one stored with the entry.
    """
    problems = []
    entry = None
    if reference is not None:
        entry = reference.get(key)
        if entry is None:
            problems.append("cell missing from the reference")
        elif bound is None:
            bound = entry["bound"]
    if not record.get("completed", False):
        problems.append("not every flow completed")
    if bound is not None and \
            record["makespan"] < bound * (1.0 - TOLERANCE["bound_rel"]):
        problems.append(f"makespan {record['makespan']:.9g} below the "
                        f"bottleneck bound {bound:.9g}")
    if entry is not None:
        want = entry["makespan"]
        if abs(record["makespan"] - want) > TOLERANCE["makespan_rel"] * want:
            problems.append(f"makespan {record['makespan']:.12g} != "
                            f"reference {want:.12g}")
        for field in ("events", "reallocations"):
            got, want = record[field], entry[field]
            if abs(got - want) > TOLERANCE["count_rel"] * want:
                problems.append(f"{field} {got} != reference {want}")
    return problems
