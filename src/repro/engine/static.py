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
from repro.engine.simulator import _check_placement, cached_routes
from repro.topology.base import Topology


def analyze(topology: Topology, flows: FlowSet, *,
            placement: np.ndarray | None = None,
            route_cache: dict[tuple[int, int], np.ndarray] | None = None
            ) -> LinkLoadReport:
    """Route all flows and report per-link loads and the bottleneck bound.

    ``route_cache`` is the same ``(src endpoint, dst endpoint) -> link-id
    array`` dict :func:`repro.engine.simulate` takes, so one cache per
    topology serves both modes (the search rank-0 proxies and the sweep
    runner share theirs this way).  Repeated ``(src, dst)`` pairs are
    deduplicated before routing: each distinct pair is routed exactly
    once with its sizes pre-summed, through the simulator's batched
    :func:`~repro.engine.simulator.cached_routes`.
    """
    placement = _check_placement(topology, flows, placement)
    capacities = topology.links.capacities
    loads = np.zeros(capacities.shape[0], dtype=np.float64)
    if route_cache is None:
        route_cache = {}

    src_ep = placement[flows.src]
    dst_ep = placement[flows.dst]
    network = src_ep != dst_ep  # zero-hop: co-located tasks load no link
    if network.any():
        # dedupe (src, dst) pairs and accumulate their total bytes first
        pair_key = (src_ep[network].astype(np.int64)
                    * np.int64(topology.num_endpoints)
                    + dst_ep[network])
        unique_keys, inverse = np.unique(pair_key, return_inverse=True)
        totals = np.bincount(inverse, weights=flows.size[network],
                             minlength=unique_keys.shape[0])
        routes = cached_routes(topology,
                               *np.divmod(unique_keys, topology.num_endpoints),
                               route_cache)
        for route, total in zip(routes, totals.tolist()):
            loads[route] += total

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
