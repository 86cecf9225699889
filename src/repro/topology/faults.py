"""Fault-tolerance analysis (paper future work).

The paper's conclusions list "mechanisms for fault tolerance" and extending
the topology analyses "to incorporate ... fault tolerance" as future work.
This module provides that analysis for every shipped topology:

* **routed-path vulnerability** — the deterministic routing functions of
  the paper (DOR, UP*/DOWN* with d-mod-k, e-cube, nested) offer exactly one
  path per pair, so a pair *breaks* when any of its links fails.
  :func:`vulnerability` measures the broken-pair fraction under sampled
  random link failures.
* **physical resilience** — how many of those broken pairs remain
  physically connected (an adaptive/rerouting layer could save them).
* **uplink fail-over for hybrids** — a concrete rerouting mechanism:
  when the *uplink port* of a node's designated uplink fails (the node
  itself stays alive and keeps routing torus traffic), traffic falls back
  to the nearest subtorus node with a surviving uplink
  (:func:`reroute_uplinks`), quantifying how much of the hybrid's
  vulnerability an implementable mechanism recovers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError, TopologyError
from repro.routing import dor
from repro.topology.base import Topology
from repro.topology.hybrid import NestedTopology


def _require_networkx(purpose: str = "fault analysis"):
    """Import networkx or fail fast with an actionable message.

    networkx is an optional extra: only the static fault *analysis* and
    the jellyfish comparator need it (the dynamic degraded-routing layer
    in :mod:`repro.topology.degraded` does not).  Failing here, before
    any sampling work, beats an ``ImportError`` surfacing deep inside the
    pair loop.
    """
    try:
        import networkx as nx
    except ImportError as exc:
        raise ReproError(
            f"install networkx for {purpose} "
            f"(pip install 'repro[faults]')") from exc
    return nx


@dataclass(frozen=True)
class VulnerabilityReport:
    """Outcome of a sampled link-failure experiment."""

    failed_links: int
    pairs_sampled: int
    broken_pairs: int          # routed path crosses a failed link
    disconnected_pairs: int    # no physical path at all remains

    @property
    def broken_fraction(self) -> float:
        return self.broken_pairs / self.pairs_sampled if self.pairs_sampled else 0.0

    @property
    def reroutable_fraction(self) -> float:
        """Broken pairs an adaptive routing layer could still serve."""
        if self.broken_pairs == 0:
            return 0.0
        return 1.0 - self.disconnected_pairs / self.broken_pairs

    def summary(self) -> str:
        return (f"{self.failed_links} failed links: "
                f"{self.broken_fraction * 100:.2f}% of pairs broken, "
                f"{self.reroutable_fraction * 100:.1f}% of those reroutable")


def duplex_cables(topology: Topology, count: int) -> list[tuple[int, ...]]:
    """The directed link ids of every network cable, one tuple per cable
    in order of its first link id; ``count`` cables must exist.

    NIC links never fail (a dead NIC is a dead node, a different model).
    """
    nic_base = topology.num_endpoints + topology.num_switches
    src, dst = topology.links.sources, topology.links.destinations
    lids = np.flatnonzero((src < nic_base) & (dst < nic_base))  # no NIC links
    key = (np.minimum(src[lids], dst[lids]) * nic_base
           + np.maximum(src[lids], dst[lids]))
    order = np.argsort(key, kind="stable")  # ascending link ids per cable
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    if count > starts.shape[0]:
        raise TopologyError(
            f"cannot fail {count} cables; only {starts.shape[0]} exist")
    grouped = lids[order]
    bounds = [*starts.tolist(), grouped.shape[0]]
    members = grouped.tolist()
    return [tuple(members[bounds[i]:bounds[i + 1]])
            for i in np.argsort(grouped[starts], kind="stable").tolist()]


def uplink_ports(topology: Topology, count: int) -> list[int]:
    """The endpoint ids of every hybrid uplink port, subtorus by subtorus;
    ``count`` ports must exist."""
    if not isinstance(topology, NestedTopology):
        raise TopologyError(
            "uplink-port faults only apply to hybrid topologies, "
            f"not {topology.name!r}")
    ports = [s * topology.plan.nodes + local
             for s in range(topology.num_subtori)
             for local in topology.plan.uplinked]
    if count > len(ports):
        raise TopologyError(
            f"cannot fail {count} uplink ports; only {len(ports)} exist")
    return ports


def sample_link_failures(topology: Topology, count: int, *,
                         seed: int = 0) -> set[int]:
    """Pick ``count`` random failed *duplex* cables (both directions die)."""
    cables = duplex_cables(topology, count)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(cables), size=count, replace=False)
    failed: set[int] = set()
    for i in chosen:
        failed.update(cables[int(i)])
    return failed


def route_survives(topology: Topology, src: int, dst: int,
                   failed_links: set[int]) -> bool:
    """True when the deterministic route avoids every failed link."""
    return not any(l in failed_links for l in topology.route(src, dst))


def vulnerability(topology: Topology, failed_links: set[int], *,
                  pairs: int = 1000, seed: int = 0) -> VulnerabilityReport:
    """Sampled broken-pair fraction under a set of failed links."""
    nx = _require_networkx()

    n = topology.num_endpoints
    rng = np.random.default_rng(seed)
    graph = topology.to_networkx()
    for lid in failed_links:
        u, v = topology.links.endpoints_of(lid)
        if graph.has_edge(u, v):
            graph.remove_edge(u, v)

    broken = 0
    disconnected = 0
    for _ in range(pairs):
        s = int(rng.integers(n))
        d = int(rng.integers(n - 1))
        if d >= s:
            d += 1
        if not route_survives(topology, s, d, failed_links):
            broken += 1
            if not nx.has_path(graph, s, d):
                disconnected += 1
    return VulnerabilityReport(failed_links=len(failed_links) // 2,
                               pairs_sampled=pairs, broken_pairs=broken,
                               disconnected_pairs=disconnected)


def reroute_uplinks(topology: NestedTopology, src: int, dst: int,
                    failed_uplink_nodes: set[int]) -> list[int]:
    """Hybrid uplink fail-over: route around dead uplink *ports*.

    ``failed_uplink_nodes`` lists endpoints whose upper-tier port has
    failed; the endpoints themselves stay alive (they still forward torus
    traffic and may appear as transit hops).  Produces a vertex path like
    ``vertex_path`` but, whenever the designated uplink of either endpoint
    is in the failed set, substitutes the nearest surviving uplinked node
    of the same subtorus (DOR distance, lowest local id breaking ties).
    Raises when a subtorus has no surviving uplink (that subtorus is cut
    off from the upper tier).
    """
    if not isinstance(topology, NestedTopology):
        raise TopologyError("uplink fail-over only applies to hybrids")
    if topology.subtorus_of(src) == topology.subtorus_of(dst):
        return topology.vertex_path(src, dst)  # never uses uplinks

    us = _designated_or_fallback(topology, src, failed_uplink_nodes)
    ud = _designated_or_fallback(topology, dst, failed_uplink_nodes)
    up = topology._local_path(src, us)
    switches = [topology._switch_offset + s
                for s in topology.fabric.port_path(topology.port_of(us),
                                                   topology.port_of(ud))]
    down = topology._local_path(ud, dst)
    return up + switches + down


def _designated_or_fallback(topology: NestedTopology, endpoint: int,
                            failed: set[int]) -> int:
    designated = topology.designated_uplink(endpoint)
    if designated not in failed:
        return designated
    plan = topology.plan
    s, local = divmod(endpoint, plan.nodes)
    base = s * plan.nodes
    my_coord = dor.index_to_coord(local, plan.dims)
    best: tuple[int, int] | None = None  # (distance, local id)
    for candidate in plan.uplinked:
        node = base + candidate
        if node in failed:
            continue
        dist = dor.distance(my_coord, dor.index_to_coord(candidate, plan.dims),
                            plan.dims)
        key = (dist, candidate)
        if best is None or key < best:
            best = key
    if best is None:
        raise TopologyError(
            f"subtorus {s} has no surviving uplink; upper tier unreachable")
    return base + best[1]


def failover_coverage(topology: NestedTopology, failed_uplink_nodes: set[int],
                      *, pairs: int = 500, seed: int = 0) -> float:
    """Fraction of inter-subtorus pairs served after uplink fail-over.

    A pair counts as served when :func:`reroute_uplinks` produces a valid
    walk that enters the upper tier through a surviving uplink port (the
    failed nodes may still appear as torus transit hops — only their
    upper-tier ports are dead).
    """
    n = topology.num_endpoints
    rng = np.random.default_rng(seed)
    served = 0
    total = 0
    for _ in range(pairs):
        s = int(rng.integers(n))
        d = int(rng.integers(n - 1))
        if d >= s:
            d += 1
        if topology.subtorus_of(s) == topology.subtorus_of(d):
            continue
        total += 1
        try:
            path = reroute_uplinks(topology, s, d, failed_uplink_nodes)
        except TopologyError:
            continue
        if not _uses_failed_port(topology, path, failed_uplink_nodes):
            served += 1
    return served / total if total else 1.0


def _uses_failed_port(topology: NestedTopology, path: list[int],
                      failed: set[int]) -> bool:
    """True when the walk crosses an endpoint<->switch hop of a dead port."""
    switch_lo = topology.num_endpoints
    for a, b in zip(path, path[1:]):
        if a in failed and b >= switch_lo:
            return True
        if b in failed and a >= switch_lo:
            return True
    return False
