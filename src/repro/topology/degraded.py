"""Degraded-network simulation layer (paper future work: fault tolerance).

:mod:`repro.topology.faults` answers the *static* question — how many pairs
break when links die.  This module answers the *dynamic* one the paper
leaves open: how much slower do the topologies actually run on a broken
machine?  :class:`DegradedTopology` wraps any built topology plus a
:class:`FaultSet` and presents the full :class:`~repro.topology.base.Topology`
interface, so the flow engine and the static analyzer simulate a degraded
network without knowing it — rerouted paths load links exactly like healthy
routes.

Fault taxonomy (see ``docs/fault-model.md``):

* **failed duplex cables** — both directed links of a network cable die.
  NIC (injection/consumption) links never fail: a dead NIC is a dead node,
  a different fault model.
* **failed uplink ports** (hybrids only) — the upper-tier port of an
  uplinked endpoint dies; the endpoint itself stays alive and keeps
  forwarding subtorus traffic.

Rerouting semantics, in order:

1. the topology's deterministic route, when it survives the fault set;
2. for hybrids with dead uplink ports, the paper-style fail-over of
   :func:`repro.topology.faults.reroute_uplinks` (nearest surviving uplink
   of the same subtorus);
3. a minimal detour — deterministic BFS over the surviving network graph;
4. :class:`~repro.errors.DegradedNetworkError` naming the disconnected
   pair when no physical path remains.  Never a silent drop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import DegradedNetworkError, TopologyError
from repro.routing import walks
from repro.topology import faults as faults_mod
from repro.topology.base import MAX_ROUTE_CANDIDATES, Topology
from repro.topology.hybrid import NestedTopology


@dataclass(frozen=True)
class FaultSet:
    """A reproducible set of injected faults.

    ``failed_links`` holds *directed* link ids, always both directions of
    each failed cable.  ``failed_uplinks`` holds endpoint ids whose
    upper-tier port is dead (hybrids only).  ``provenance`` records the
    ``(cables, uplinks, seed)`` triple when the set was sampled, so sweep
    checkpoints can fingerprint the faults without storing every id.
    """

    failed_links: frozenset[int] = frozenset()
    failed_uplinks: frozenset[int] = frozenset()
    provenance: tuple[int, int, int] | None = None

    @classmethod
    def sample(cls, topology: Topology, *, cables: int = 0, uplinks: int = 0,
               seed: int = 0) -> FaultSet:
        """Draw ``cables`` failed cables and ``uplinks`` dead uplink ports.

        Reproducible: the same ``(topology, cables, uplinks, seed)`` always
        yields the same fault set.  Uplink-port faults require a hybrid
        (:class:`NestedTopology`); other families have no uplink ports.
        """
        if cables < 0 or uplinks < 0:
            raise TopologyError(
                f"fault counts must be non-negative, got cables={cables}, "
                f"uplinks={uplinks}")
        failed_links: frozenset[int] = frozenset()
        if cables:
            failed_links = frozenset(
                faults_mod.sample_link_failures(topology, cables, seed=seed))
        failed_uplinks: frozenset[int] = frozenset()
        if uplinks:
            ports = faults_mod.uplink_ports(topology, uplinks)
            # independent sub-stream so cable and port draws never collide
            rng = np.random.default_rng([seed, 0xFA])
            chosen = rng.choice(len(ports), size=uplinks, replace=False)
            failed_uplinks = frozenset(ports[int(i)] for i in chosen)
        return cls(failed_links, failed_uplinks, (cables, uplinks, seed))

    @property
    def empty(self) -> bool:
        return not (self.failed_links or self.failed_uplinks)

    def fingerprint(self) -> dict:
        """Checkpoint-stable description of this fault set."""
        if self.provenance is not None:
            cables, uplinks, seed = self.provenance
            return {"cables": cables, "uplinks": uplinks, "seed": seed}
        return {"links": sorted(self.failed_links),
                "uplink_ports": sorted(self.failed_uplinks)}

    def cache_token(self) -> tuple:
        """Hashable identity of this fault set, for route cache keys.

        Two fault sets with the same token produce identical reroutes on
        the same base topology; distinct tokens keep a shared route cache
        from leaking routes across differently-degraded wrappers.
        """
        if self.provenance is not None:
            return ("sampled", *self.provenance)
        return ("explicit", tuple(sorted(self.failed_links)),
                tuple(sorted(self.failed_uplinks)))

    def describe(self) -> str:
        return (f"{len(self.failed_links) // 2} failed cables, "
                f"{len(self.failed_uplinks)} dead uplink ports")


def validate_fault_ids(topology: Topology, failed_links, failed_uplinks
                       ) -> None:
    """Range-check fault ids against ``topology``, naming the offenders.

    A fault set sampled on one topology and applied to another used to
    surface as an opaque ``unknown link id`` from the link table (or worse,
    silently degrade the wrong cables when the ids happened to be in
    range on both machines — same count, different wiring).  This is the
    single validation path: :class:`DegradedTopology` runs it at wrap time
    and :meth:`~repro.topology.timeline.FaultTimeline.validate` per event.
    """
    links = topology.links
    num_links = links.num_links
    nic_base = topology.num_endpoints + topology.num_switches
    unknown = sorted(lid for lid in failed_links
                     if not 0 <= int(lid) < num_links)
    if unknown:
        raise TopologyError(
            f"fault set names unknown link id(s) {unknown[:8]} "
            f"(this topology has {num_links} links); was it sampled on a "
            f"different topology?")
    for lid in failed_links:
        u, v = links.endpoints_of(lid)
        if u >= nic_base or v >= nic_base:
            raise TopologyError(
                f"failed link {lid} is a NIC link; NIC faults are a "
                f"different model (dead node)")
        if links.id_of(v, u) not in failed_links:
            raise TopologyError(
                f"failed link {lid} ({u}->{v}) without its reverse; "
                f"cables fail as whole duplex pairs")
    if failed_uplinks:
        if not isinstance(topology, NestedTopology):
            raise TopologyError(
                "uplink-port faults only apply to hybrid topologies")
        foreign = sorted(e for e in failed_uplinks
                         if not 0 <= int(e) < topology.num_endpoints)
        if foreign:
            raise TopologyError(
                f"fault set names unknown endpoint id(s) {foreign[:8]} as "
                f"dead uplink ports (this topology has "
                f"{topology.num_endpoints} endpoints); was it sampled on a "
                f"different topology?")
        portless = sorted(
            e for e in failed_uplinks
            if (int(e) % topology.plan.nodes) not in topology.plan.uplink_rank)
        if portless:
            raise TopologyError(
                f"endpoint(s) {portless[:8]} have no uplink port to fail")


class DegradedTopology(Topology):
    """A topology with injected faults, routed around where possible.

    Shares the base topology's frozen link table instead of building a new
    one, so link ids — and therefore engine capacity vectors, route caches
    and static link-load reports — stay directly comparable with the
    healthy machine.  Unknown attributes delegate to the base topology
    (``subtorus_of``, ``plan``, ... keep working on wrapped hybrids).
    """

    def __init__(self, base: Topology, faults: FaultSet) -> None:
        if isinstance(base, DegradedTopology):
            raise TopologyError(
                "cannot wrap an already-degraded topology; merge the fault "
                "sets instead")
        # deliberately not calling Topology.__init__: the wrapper borrows
        # the base's finalized link table rather than constructing one
        self.base = base
        self.faults = faults
        self.name = f"{base.name}+faults"
        self.num_endpoints = base.num_endpoints
        self.num_switches = base.num_switches
        self.link_capacity = base.link_capacity
        self.nic_capacity = base.nic_capacity
        self.links = base.links
        self._inj = base.injection_links
        self._cons = base.consumption_links
        self._adjacency: list[list[int]] | None = None
        self._disabled_mask: np.ndarray | None = None
        validate_fault_ids(base, faults.failed_links, faults.failed_uplinks)

    # ------------------------------------------------------------ inspection
    def disabled_link_mask(self) -> np.ndarray:
        """Boolean per-link mask of links this fault set makes unusable.

        Failed cables plus every endpoint<->switch link of a dead uplink
        port; NIC links never appear.  The link-level ground truth of
        :meth:`_walk_survives` — the engine's fault epochs use it to find the
        in-flight flows a fault event just cut, and the property tests use
        it to assert candidate routes stay on surviving links.  Built
        lazily once (O(links)); cached per wrapper.
        """
        if self._disabled_mask is None:
            mask = np.zeros(self.links.num_links, dtype=bool)
            if self.faults.failed_links:
                mask[np.fromiter(self.faults.failed_links,
                                 dtype=np.int64)] = True
            dead = self.faults.failed_uplinks
            if dead:
                ep = self.num_endpoints
                nic_base = ep + self.num_switches
                srcs = self.links.sources
                dsts = self.links.destinations
                dead_arr = np.fromiter(dead, dtype=np.int64)
                sw_src = (srcs >= ep) & (srcs < nic_base)
                sw_dst = (dsts >= ep) & (dsts < nic_base)
                mask |= (srcs < ep) & sw_dst & np.isin(srcs, dead_arr)
                mask |= (dsts < ep) & sw_src & np.isin(dsts, dead_arr)
            self._disabled_mask = mask
        return self._disabled_mask

    # ---------------------------------------------------------------- routing
    def vertex_path(self, src: int, dst: int) -> list[int]:
        self._check_endpoint(src)
        self._check_endpoint(dst)
        path = self.base.vertex_path(src, dst)
        if self._walk_survives(path):
            return path
        # hybrids first try the paper's uplink fail-over mechanism
        if (self.faults.failed_uplinks
                and isinstance(self.base, NestedTopology)):
            try:
                rerouted = faults_mod.reroute_uplinks(
                    self.base, src, dst, set(self.faults.failed_uplinks))
            except TopologyError:
                rerouted = None
            if rerouted is not None and self._walk_survives(rerouted):
                return rerouted
        # minimal detour over whatever physically survives
        detour = self._detour(src, dst)
        if detour is None:
            raise DegradedNetworkError([(src, dst)],
                                       faults=self.faults.describe())
        return detour

    def _walk_survives(self, path: list[int]) -> bool:
        """True when the walk avoids failed cables and dead uplink ports."""
        return not self.disabled_link_mask()[
            self.links.path_to_links(path)].any()

    def candidate_routes(self, src: np.ndarray, dst: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Surviving minimal candidates, rerouted deterministic route first.

        A pair's first route is its :meth:`routes` row, which may be a
        fail-over or detour when the deterministic route is cut.  The
        others are the base machine's candidates that cross no disabled
        link, in the base's order, less any equal to that first route;
        spreading policies keep their freedom on the links still up.
        """
        src, dst = self._check_endpoints(src, dst)
        det = self.routes(src, dst)
        pair_ptr, *base = self.base.candidate_routes(src, dst)
        indptr, links = base
        lengths = np.diff(indptr)
        pair = np.repeat(np.arange(src.shape[0], dtype=np.int64),
                         np.diff(pair_ptr))
        keep = _clean_rows(indptr, self.disabled_link_mask()[links])
        # a surviving base route as long as the pair's first one may be it
        same = np.flatnonzero(keep & (lengths == np.diff(det[0])[pair]))
        if same.shape[0]:
            mine = walks.take(base, same)
            theirs = walks.take(det, pair[same])
            keep[same] = ~_clean_rows(mine[0], mine[1] != theirs[1])
        # the first route plus at most MAX - 1 others per pair
        kept = np.flatnonzero(keep)
        rank = np.arange(kept.shape[0]) - np.searchsorted(
            pair[kept], pair[kept])
        kept = kept[rank < MAX_ROUTE_CANDIDATES - 1]
        others = np.bincount(pair[kept], minlength=src.shape[0])
        other_ptr = walks.from_lengths(others)
        # per pair: its first route, then its kept others, as one row of
        # route lengths and one row of links
        route_lengths = walks.concat_rows(
            (np.arange(src.shape[0] + 1), np.diff(det[0])),
            (other_ptr, lengths[kept]))[1]
        other_links = walks.take(base, kept)
        return (other_ptr + np.arange(src.shape[0] + 1),
                walks.from_lengths(route_lengths),
                walks.concat_rows(det, (other_links[0][other_ptr],
                                        other_links[1]))[1])

    def routes(self, src: np.ndarray, dst: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`route`: the base machine's routes, except that
        each pair whose route crosses a disabled link is rerouted as
        :meth:`vertex_path` does, in pair order."""
        src, dst = self._check_endpoints(src, dst)
        indptr, links = self.base.routes(src, dst)
        keep = _clean_rows(indptr, self.disabled_link_mask()[links])
        if keep.all():
            return indptr, links
        lengths = np.diff(indptr)
        kept = (walks.from_lengths(lengths[keep]),
                links[np.repeat(keep, lengths)])
        rerouted = walks.from_rows([
            self.route(s, d) for s, d in zip(src[~keep].tolist(),
                                             dst[~keep].tolist())])
        return walks.concat_rows(walks.spread(keep, kept),
                                 walks.spread(~keep, rerouted))

    def _surviving_adjacency(self) -> list[list[int]]:
        """Adjacency over endpoints+switches, failed hops removed.

        Neighbour lists are sorted so the BFS detour is deterministic.
        Built lazily once — healthy routes never pay for it.
        """
        if self._adjacency is None:
            n = self.num_endpoints + self.num_switches
            src, dst = self.links.sources, self.links.destinations
            # NIC links and disabled links (failed cables, dead ports) out
            up = np.flatnonzero((src < n) & (dst < n)
                                & ~self.disabled_link_mask())
            order = np.lexsort((dst[up], src[up]))
            bounds = np.searchsorted(src[up][order], np.arange(n + 1)).tolist()
            heads = dst[up][order].tolist()
            self._adjacency = [heads[bounds[u]:bounds[u + 1]]
                               for u in range(n)]
        return self._adjacency

    def _endpoint_can_transit(self, endpoint: int, src: int, dst: int) -> bool:
        """Whether a third-party endpoint may forward ``src -> dst`` traffic.

        Switches always forward; endpoints only where the architecture
        makes them routers: everywhere on a switchless direct network
        (torus/mesh — the endpoints *are* the routers), and inside the
        source or destination subtorus of a hybrid (lower-tier DOR
        forwarding).  Leaf endpoints of indirect networks (trees, GHC,
        dragonfly, jellyfish) terminate traffic — a detour through one
        would be unimplementable on the real machine.
        """
        if self.num_switches == 0:
            return True
        if isinstance(self.base, NestedTopology):
            return self.base.subtorus_of(endpoint) in (
                self.base.subtorus_of(src), self.base.subtorus_of(dst))
        return False

    def _detour(self, src: int, dst: int) -> list[int] | None:
        """Deterministic shortest surviving walk, or ``None`` if cut off.

        Intermediate vertices are restricted to those that can actually
        forward traffic (see :meth:`_endpoint_can_transit`): without the
        restriction the BFS happily routed through third-party endpoints'
        NICs, producing walks no real network could realise.
        """
        adj = self._surviving_adjacency()
        ep = self.num_endpoints
        parent = {src: src}
        frontier = deque([src])
        while frontier:
            vertex = frontier.popleft()
            if vertex == dst:
                path = [dst]
                while path[-1] != src:
                    path.append(parent[path[-1]])
                return path[::-1]
            for neighbour in adj[vertex]:
                if neighbour in parent:
                    continue
                if (neighbour < ep and neighbour != dst
                        and not self._endpoint_can_transit(neighbour, src, dst)):
                    continue
                parent[neighbour] = vertex
                frontier.append(neighbour)
        return None

    # ------------------------------------------------------------- inspection
    def link_tiers(self):
        """Tier metadata of the wrapped machine (shared link table)."""
        return self.base.link_tiers()

    def describe(self) -> str:
        return f"{self.base.describe()} [degraded: {self.faults.describe()}]"

    def __getattr__(self, name: str):
        # only reached when normal lookup fails; delegates hybrid helpers
        # (subtorus_of, plan, fabric, ...) to the wrapped topology
        if name.startswith("_") or "base" not in self.__dict__:
            raise AttributeError(name)
        return getattr(self.base, name)


def _clean_rows(indptr: np.ndarray, disabled: np.ndarray) -> np.ndarray:
    """Per CSR row, True when none of its entries is ``disabled``."""
    hits = np.concatenate(([0], np.cumsum(disabled)))
    return hits[indptr[1:]] == hits[indptr[:-1]]


def degrade(topology: Topology, *, cables: int = 0, uplinks: int = 0,
            seed: int = 0) -> Topology:
    """Wrap ``topology`` with sampled faults; identity when both counts are 0."""
    if not cables and not uplinks:
        return topology
    return DegradedTopology(
        topology, FaultSet.sample(topology, cables=cables, uplinks=uplinks,
                                  seed=seed))
