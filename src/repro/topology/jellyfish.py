"""Jellyfish topology (related-work comparator).

The paper's related work covers Jellyfish (Singla et al., NSDI'12): a
random regular graph of switches that is incrementally expandable and can
beat tree-like topologies, at the price of unstructured routing and
wiring.  This implementation uses a seeded ``networkx`` random regular
graph, ``p`` endpoints per switch, and deterministic shortest-path routing
(per-source BFS trees with sorted neighbour order, computed lazily and
cached per source switch) — so, unlike the structured families, routes
here are data-driven rather than algebraic, which is exactly the
practicality drawback the paper points out.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RoutingError, TopologyError
from repro.topology.base import Topology
from repro.units import DEFAULT_LINK_CAPACITY


class JellyfishTopology(Topology):
    """Random ``degree``-regular switch graph with ``p`` endpoints each."""

    name = "jellyfish"

    def __init__(self, num_switches: int, degree: int,
                 ports_per_switch: int, *, seed: int = 0,
                 link_capacity: float = DEFAULT_LINK_CAPACITY,
                 nic_capacity: float | None = None) -> None:
        if num_switches < 2 or ports_per_switch < 1:
            raise TopologyError("need >= 2 switches and >= 1 port each")
        if degree >= num_switches or degree < 2 or \
                (num_switches * degree) % 2:
            raise TopologyError(
                f"no {degree}-regular graph on {num_switches} switches")
        super().__init__(num_switches * ports_per_switch, num_switches,
                         link_capacity, nic_capacity)
        self.degree = degree
        self.ports_per_switch = ports_per_switch
        self.seed = seed
        self._switch_offset = self.num_endpoints

        # networkx is an optional extra; only constructing a jellyfish
        # (sampling the random regular graph) needs it
        from repro.topology.faults import _require_networkx
        nx = _require_networkx("the jellyfish comparator")
        graph = nx.random_regular_graph(degree, num_switches, seed=seed)
        if not nx.is_connected(graph):  # rare at these degrees; re-seed
            for retry in range(1, 64):
                graph = nx.random_regular_graph(degree, num_switches,
                                                seed=seed + retry * 7919)
                if nx.is_connected(graph):
                    break
            else:  # pragma: no cover - probability ~0 for degree >= 3
                raise TopologyError("could not sample a connected jellyfish")
        # sorted adjacency makes the BFS routing deterministic
        self._adj: list[list[int]] = [
            sorted(graph.neighbors(s)) for s in range(num_switches)]
        # one cable per edge s < t, switch by switch (a regular graph:
        # every adjacency row has ``degree`` entries)
        adj = np.asarray(self._adj, dtype=np.int64)
        lower = np.broadcast_to(
            np.arange(num_switches, dtype=np.int64)[:, None], adj.shape)
        upward = adj > lower
        self.links.add_cables(self._switch_offset + lower[upward],
                              self._switch_offset + adj[upward],
                              link_capacity)
        ends = np.arange(self.num_endpoints, dtype=np.int64)
        self.links.add_cables(
            ends, self._switch_offset + ends // ports_per_switch,
            link_capacity)
        self._finalize()
        self._bfs_parent: dict[int, list[int]] = {}

    # ---------------------------------------------------------------- routing
    def _parents_from(self, root: int) -> list[int]:
        """BFS parent array rooted at switch ``root`` (lazily cached)."""
        cached = self._bfs_parent.get(root)
        if cached is not None:
            return cached
        parent = [-1] * self.num_switches
        parent[root] = root
        frontier = [root]
        while frontier:
            nxt = []
            for s in frontier:
                for t in self._adj[s]:
                    if parent[t] == -1:
                        parent[t] = s
                        nxt.append(t)
            frontier = nxt
        if any(p == -1 for p in parent):  # pragma: no cover
            raise RoutingError("jellyfish switch graph is disconnected")
        self._bfs_parent[root] = parent
        return parent

    def vertex_path(self, src: int, dst: int) -> list[int]:
        self._check_endpoint(src)
        self._check_endpoint(dst)
        if src == dst:
            return [src]
        s_src = src // self.ports_per_switch
        s_dst = dst // self.ports_per_switch
        if s_src == s_dst:
            return [src, self._switch_offset + s_src, dst]
        # walk dst -> src up the BFS tree rooted at the source switch, so
        # paths from one source fan out along one shortest-path tree
        parent = self._parents_from(s_src)
        chain = [s_dst]
        while chain[-1] != s_src:
            chain.append(parent[chain[-1]])
        switches = [self._switch_offset + s for s in reversed(chain)]
        return [src, *switches, dst]

    # --------------------------------------------------------------- analysis
    def routing_diameter(self) -> int:
        """Exact: BFS eccentricity maximised over all switches, plus access."""
        worst = 0
        for root in range(self.num_switches):
            parent = self._parents_from(root)
            depth = [0] * self.num_switches
            order = sorted(range(self.num_switches),
                           key=lambda s: self._depth(parent, s))
            for s in order:
                if s != root:
                    depth[s] = depth[parent[s]] + 1
            worst = max(worst, max(depth))
        return worst + 2

    @staticmethod
    def _depth(parent: list[int], s: int) -> int:
        d = 0
        while parent[s] != s:
            s = parent[s]
            d += 1
        return d

    def describe(self) -> str:
        base = super().describe()
        return (f"{base} [degree={self.degree}, "
                f"{self.ports_per_switch} ports/switch, seed={self.seed}]")
