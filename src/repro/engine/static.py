"""Static (application-independent) analysis mode.

INRFlow "measures several static (application-independent) and dynamic
(with applications) properties" (paper Section 4.1).  The static mode here
routes every flow of a workload at once — ignoring causality — and
accumulates per-link byte loads.  It yields:

* a completion-time lower bound (the most loaded link's drain time),
* link-load distributions, overall and split by tier (NIC / lower-tier
  torus / uplinks / upper-tier fabric), which expose *where* a topology
  concentrates congestion long before a dynamic run finishes.
"""

from __future__ import annotations

import numpy as np

from repro.engine.flows import FlowSet
from repro.engine.results import LinkLoadReport
from repro.engine.routes import RouteCache, ViewRoutes, flow_pairs
from repro.engine.simulator import _check_placement
from repro.topology.base import Topology


def analyze(topology: Topology, flows: FlowSet, *,
            placement: np.ndarray | None = None,
            route_cache: RouteCache | dict | None = None
            ) -> LinkLoadReport:
    """Route all flows and report per-link loads and the bottleneck bound.

    ``route_cache`` is the same store (or plain dict)
    :func:`repro.engine.simulate` takes, so one store per topology serves
    both modes (the search rank-0 proxies and the sweep runner share
    theirs this way).  Repeated ``(src, dst)`` pairs are deduplicated
    before routing: each distinct pair is routed exactly once with its
    sizes pre-summed, and the loads are one scatter of the pairs' routes
    in pair-key order.
    """
    placement = _check_placement(topology, flows, placement)
    capacities = topology.links.capacities
    pairs, pair_of_flow = flow_pairs(placement[flows.src],
                                     placement[flows.dst],
                                     topology.num_endpoints)
    network = pair_of_flow >= 0  # zero-hop: co-located tasks load no link
    totals = np.bincount(pair_of_flow[network], weights=flows.size[network],
                         minlength=pairs.shape[0])
    view = ViewRoutes(RouteCache.of(route_cache), topology, pairs)
    lens, links = view.gather(view.rows(np.arange(pairs.shape[0])))
    loads = np.bincount(links, weights=np.repeat(totals, lens),
                        minlength=capacities.shape[0])

    bottleneck = float(np.max(loads / capacities)) if loads.size else 0.0
    return LinkLoadReport(
        loads=loads,
        capacities=capacities,
        bottleneck_time=bottleneck,
        flows_routed=flows.num_flows,
        tier_loads=_tier_breakdown(topology, loads),
    )


def load_imbalance(topology: Topology, report: LinkLoadReport) -> float:
    """Max-over-mean drain time across the *loaded network* links.

    NIC links are excluded (they saturate identically on every topology
    for endpoint-bound workloads) and so are idle links (a sparse uplink
    tier would otherwise look imbalanced just for having spare cables).
    ``1.0`` is a perfectly balanced network; larger values mean the
    topology concentrates the workload's bytes on few links — the rank-0
    congestion proxy of the design search.
    """
    names, index = topology.link_tiers()
    network = np.ones(report.loads.shape[0], dtype=bool)
    for i, name in enumerate(names):
        if name == "nic":
            network &= index != i
    drain = report.loads[network] / report.capacities[network]
    loaded = drain[drain > 0]
    if loaded.size == 0:
        return 1.0
    return float(loaded.max() / loaded.mean())


def _tier_breakdown(topology: Topology, loads: np.ndarray) -> dict[str, float]:
    """Total bits carried per architectural tier.

    Delegates the link classification to the topology's own
    :meth:`~repro.topology.base.Topology.link_tiers` metadata (a degraded
    wrapper returns its base machine's, since they share one link table).
    """
    names, index = topology.link_tiers()
    return {name: float(loads[index == i].sum())
            for i, name in enumerate(names)}
