"""Abstract topology interface.

Vertex-id convention (dense ints, shared by every topology):

* ``0 .. num_endpoints-1``         — endpoints (QFDBs),
* ``num_endpoints .. +num_switches`` — switches,
* two *virtual NIC* vertices per endpoint after that — sources/sinks of the
  injection and consumption links.

Every route produced by :meth:`Topology.route` starts with the source
endpoint's injection link and ends with the destination endpoint's
consumption link, both at the nominal link rate.  This models the QFDB's
finite injection/ejection bandwidth uniformly across all topologies — it is
what serialises the ``Reduce`` hot-spot identically everywhere (paper §5.2:
"the consumption port at the root becomes the bottleneck").
:meth:`Topology.routes` returns the same routes for many pairs at once.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from repro.errors import RoutingError
from repro.routing import walks
from repro.topology.linktable import LinkTable
from repro.units import DEFAULT_LINK_CAPACITY

#: Cap on the candidate routes a single pair may expose.  Candidate sets
#: are enumerated deterministic-first, so truncation keeps the
#: deterministic route and a prefix of the alternatives in enumeration
#: order; without a cap the hybrid cross products (tied uplinks x
#: upper-fabric walks) can explode combinatorially at large arities.
MAX_ROUTE_CANDIDATES = 64


class Topology(ABC):
    """A network topology with a deterministic routing function.

    Subclasses build all *network* links in their constructor and finish by
    calling :meth:`_finalize`, which appends the per-endpoint NIC links and
    freezes the link table.
    """

    #: Human-readable topology family name; subclasses override.
    name: str = "topology"

    def __init__(self, num_endpoints: int, num_switches: int,
                 link_capacity: float = DEFAULT_LINK_CAPACITY,
                 nic_capacity: float | None = None) -> None:
        if num_endpoints <= 0:
            raise RoutingError("topology needs at least one endpoint")
        self.num_endpoints = num_endpoints
        self.num_switches = num_switches
        self.link_capacity = float(link_capacity)
        # NIC link rate defaults to the network rate; raising it is the
        # ablation that de-serialises the Reduce hot-spot (paper §5.2)
        self.nic_capacity = float(nic_capacity if nic_capacity is not None
                                  else link_capacity)
        self.links = LinkTable()
        self._inj: np.ndarray | None = None
        self._cons: np.ndarray | None = None
        self._tier_names: tuple[str, ...] | None = None
        self._tier_index: np.ndarray | None = None

    # ----------------------------------------------------------- construction
    def _finalize(self) -> None:
        """Append NIC (injection/consumption) links and freeze the table."""
        n = self.num_endpoints
        e = np.arange(n, dtype=np.int64)
        nic_in = n + self.num_switches + e        # virtual source vertices
        nic_out = nic_in + n                      # virtual sink vertices
        # per endpoint: its injection link, then its consumption link
        ids = self.links.add_links(np.stack((nic_in, e), axis=1).ravel(),
                                   np.stack((e, nic_out), axis=1).ravel(),
                                   self.nic_capacity)
        self._inj = ids[0::2]
        self._cons = ids[1::2]
        self.links.freeze()

    # ---------------------------------------------------------------- routing
    @abstractmethod
    def vertex_path(self, src: int, dst: int) -> list[int]:
        """Deterministic vertex walk from endpoint ``src`` to endpoint ``dst``.

        Returns vertex ids starting with ``src`` and ending with ``dst``
        (``[src]`` when they coincide).  Every consecutive pair must be a
        registered link.
        """

    def route(self, src: int, dst: int) -> list[int]:
        """Link ids traversed by a flow ``src -> dst``, NIC links included."""
        if self._inj is None or self._cons is None:
            raise RoutingError("topology not finalised; call _finalize()")
        self._check_endpoint(src)
        self._check_endpoint(dst)
        body = self.links.path_to_links(self.vertex_path(src, dst))
        return [int(self._inj[src]), *body, int(self._cons[dst])]

    def routes(self, src: np.ndarray, dst: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic routes of many pairs as one int64 CSR.

        Returns ``(indptr, links)``: row ``i``,
        ``links[indptr[i]:indptr[i + 1]]``, equals
        ``route(src[i], dst[i])`` exactly, NIC links included (so a pair
        with ``src == dst`` gets its two NIC links).  Out-of-range
        endpoints raise :class:`RoutingError`.  This default walks each
        pair with :meth:`vertex_path` and translates all the walks with
        one link lookup; the torus/mesh, fattree, GHC and nested families
        override it, computing each hop's link id from the layout in
        which they register their links (:meth:`_grid_routes`).
        """
        src, dst = self._check_endpoints(src, dst)
        return self._walk_routes(src, dst, walks.from_rows(
            [self.vertex_path(s, d)
             for s, d in zip(src.tolist(), dst.tolist())]))

    def _walk_routes(self, src: np.ndarray, dst: np.ndarray,
                     batch: walks.CSR) -> tuple[np.ndarray, np.ndarray]:
        """Link-id routes of a batch of vertex walks, one walk per pair,
        wrapped in each pair's injection and consumption link."""
        indptr, verts = batch
        n = src.shape[0]
        starts_hop = np.ones(verts.shape[0], dtype=bool)
        starts_hop[indptr[1:] - 1] = False          # a row's last vertex
        at = np.flatnonzero(starts_hop)
        body = self.links.ids_of(verts[at], verts[at + 1])
        rows = np.arange(n, dtype=np.int64)
        out_ptr = indptr + np.arange(n + 1, dtype=np.int64)  # +2 NIC, -1 hop
        out = np.empty(int(out_ptr[-1]), dtype=np.int64)
        out[out_ptr[:-1]] = self._inj[src]
        out[out_ptr[1:] - 1] = self._cons[dst]
        # hop k of pair r follows the 2r NIC links of the pairs before it
        # and r's own injection link
        out[np.arange(body.shape[0]) + 2 * np.repeat(rows, np.diff(indptr) - 1)
            + 1] = body
        return out_ptr, out

    def _grid_routes(self, src: np.ndarray, dst: np.ndarray,
                     *blocks: tuple[np.ndarray, np.ndarray | None]
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Link-id routes assembled from blocks of link ids.

        Each block is ``(ids, keep)`` with one column per pair: ``ids`` a
        ``(width, pairs)`` grid or a single row of ``pairs`` ids, ``keep``
        a mask of the same shape, or ``None`` to keep every cell.  Row
        ``i`` of the result is ``src[i]``'s injection link, the kept
        cells of column ``i`` block by block, top to bottom, and
        ``dst[i]``'s consumption link.
        """
        blocks = [(ids, keep) if ids.ndim == 2
                  else (ids[None], None if keep is None else keep[None])
                  for ids, keep in blocks]
        # pair-major, so each route's cells are contiguous and one
        # compress of the flat grid yields every route in turn; filled a
        # column at a time, so each copy runs down all the pairs
        width = 2 + sum(ids.shape[0] for ids, _ in blocks)
        grid = np.empty((src.shape[0], width), dtype=np.int64)
        keep_all = np.ones(grid.shape, dtype=bool)
        lengths = np.full(src.shape[0], width, dtype=np.int64)
        grid[:, 0] = self._inj[src]
        grid[:, -1] = self._cons[dst]
        at = 1
        for ids, keep in blocks:
            for row in range(ids.shape[0]):
                grid[:, at + row] = ids[row]
                if keep is not None:
                    keep_all[:, at + row] = keep[row]
            if keep is not None:
                lengths -= ids.shape[0] - keep.sum(axis=0)
            at += ids.shape[0]
        return (walks.from_lengths(lengths),
                np.compress(keep_all.ravel(), grid.ravel()))

    def candidate_routes(self, src: np.ndarray, dst: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every minimal route of many pairs, as one two-level CSR.

        Returns ``(pair_ptr, indptr, links)``: pair ``i`` owns the routes
        ``pair_ptr[i]:pair_ptr[i + 1]``, and route ``r`` is
        ``links[indptr[r]:indptr[r + 1]]``, NIC links included.  A pair's
        first route is its :meth:`routes` row, the deterministic route
        the :mod:`~repro.routing.policy` layer uses as the escape path;
        the others are the family's other minimal routes, distinct, in
        the family's enumeration order, and each pair has at most
        :data:`MAX_ROUTE_CANDIDATES`.  This default is the deterministic
        route alone; families with routing freedom (wrap-tie tori,
        redundant tree ancestors, e-cube dimension orders, hybrid
        uplink/fabric combinations) compute their other routes from the
        wiring layout, like :meth:`routes`.
        """
        src, dst = self._check_endpoints(src, dst)
        return (np.arange(src.shape[0] + 1, dtype=np.int64),
                *self.routes(src, dst))

    def route_candidates(self, src: int, dst: int) -> list[list[int]]:
        """All minimal link-id routes ``src -> dst``, NIC links included.

        ``route(src, dst) == route_candidates(src, dst)[0]`` always holds:
        candidate 0 is the deterministic route, and the
        :mod:`~repro.routing.policy` layer relies on that as the escape
        path.  Candidates are distinct and capped at
        :data:`MAX_ROUTE_CANDIDATES` (:meth:`candidate_routes`).
        """
        return self.route_candidates_many([(src, dst)])[0]

    def route_candidates_many(self, pairs: Sequence[tuple[int, int]]
                              ) -> list[list[list[int]]]:
        """:meth:`route_candidates` of every ``(src, dst)`` pair, in
        order: one :meth:`candidate_routes` batch, as lists."""
        ends = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        pair_ptr, indptr, links = self.candidate_routes(ends[:, 0],
                                                        ends[:, 1])
        flat, bounds = links.tolist(), indptr.tolist()
        routes = [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        return [routes[lo:hi] for lo, hi in zip(pair_ptr.tolist(),
                                                pair_ptr[1:].tolist())]

    def vertex_path_candidates(self, src: int, dst: int) -> list[list[int]]:
        """The vertex walks of :meth:`route_candidates`, deterministic
        first: each route's network links, as the vertices they join."""
        heads = self.links.destinations
        return [[src, *heads[route[1:-1]].tolist()] if len(route) > 2
                else [src] for route in self.route_candidates(src, dst)]

    def hops(self, src: int, dst: int) -> int:
        """Network hop count of the routed path (NIC links excluded)."""
        return len(self.vertex_path(src, dst)) - 1

    # ------------------------------------------------------------- inspection
    @property
    def injection_links(self) -> np.ndarray:
        """Per-endpoint injection link ids."""
        if self._inj is None:
            raise RoutingError("topology not finalised")
        return self._inj

    @property
    def consumption_links(self) -> np.ndarray:
        """Per-endpoint consumption link ids."""
        if self._cons is None:
            raise RoutingError("topology not finalised")
        return self._cons

    @property
    def num_network_links(self) -> int:
        """Directed network links (NIC links excluded)."""
        return self.links.num_links - 2 * self.num_endpoints

    def link_tiers(self) -> tuple[tuple[str, ...], np.ndarray]:
        """Per-link architectural-tier metadata.

        Returns ``(names, index)`` where ``names[index[i]]`` is the tier of
        link ``i``.  Tiers partition the link table; the observability
        layer and the static analyzer aggregate per-link quantities (bits,
        busy time, load) over them.  Flat topologies expose ``("network",
        "nic")``; hybrids refine ``network`` into ``lower_torus`` /
        ``uplinks`` / ``upper_fabric`` (see
        :meth:`~repro.topology.hybrid.NestedTopology._classify_links`).
        Computed once after finalisation and cached.
        """
        if self._tier_names is None:
            if self._inj is None:
                raise RoutingError("topology not finalised; call _finalize()")
            names, index = self._classify_links()
            index = np.asarray(index, dtype=np.int64)
            index.setflags(write=False)
            self._tier_names = tuple(names)
            self._tier_index = index
        assert self._tier_index is not None
        return self._tier_names, self._tier_index

    def _classify_links(self) -> tuple[tuple[str, ...], np.ndarray]:
        """Default classification: NIC links vs everything else."""
        nic_base = self.num_endpoints + self.num_switches
        srcs = np.asarray(self.links.sources, dtype=np.int64)
        dsts = np.asarray(self.links.destinations, dtype=np.int64)
        nic = (srcs >= nic_base) | (dsts >= nic_base)
        return ("network", "nic"), nic.astype(np.int64)

    def describe(self) -> str:
        """One-line summary used by reports and reprs."""
        return (f"{self.name}: {self.num_endpoints} endpoints, "
                f"{self.num_switches} switches, "
                f"{self.num_network_links} directed network links")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.describe()}>"

    def to_networkx(self):
        """Undirected networkx view of the network graph (tests/analysis).

        NIC links are omitted; each duplex pair collapses to one edge.
        """
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_endpoints + self.num_switches))
        nic_base = self.num_endpoints + self.num_switches
        for u, v in zip(self.links.sources, self.links.destinations):
            if u < nic_base and v < nic_base:
                g.add_edge(u, v)
        return g

    # ---------------------------------------------------------------- helpers
    def _check_endpoint(self, e: int) -> None:
        if not 0 <= e < self.num_endpoints:
            raise RoutingError(
                f"endpoint {e} out of range [0, {self.num_endpoints})")

    def _check_endpoints(self, src, dst) -> tuple[np.ndarray, np.ndarray]:
        """Batch twin of :meth:`_check_endpoint`: int64 endpoint arrays."""
        if self._inj is None or self._cons is None:
            raise RoutingError("topology not finalised; call _finalize()")
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.ndim != 1 or src.shape != dst.shape:
            raise RoutingError(
                f"src and dst must be equal-length 1-D arrays, got shapes "
                f"{src.shape} and {dst.shape}")
        for arr in (src, dst):
            bad = (arr < 0) | (arr >= self.num_endpoints)
            if bad.any():
                self._check_endpoint(int(arr[np.argmax(bad)]))
        return src, dst


class FabricTopology(Topology):
    """Endpoints attached one per port of a switch fabric.

    The fattree, thin-tree and GHC families: endpoint ``e`` hangs off
    fabric port ``e`` by one duplex access cable.  The fabric supplies the
    switch counts, its switch-to-switch links, its deterministic
    port-to-port switch walk (``port_path``), the number of minimal walks
    between two ports (``port_choices``) and the links of any of them
    (``port_links``, ordinals in the order ``build_links`` registers
    them); switch ``s`` of the fabric is vertex ``num_endpoints + s``.
    """

    def __init__(self, fabric, link_capacity: float,
                 nic_capacity: float | None) -> None:
        super().__init__(fabric.num_ports, fabric.num_switches,
                         link_capacity, nic_capacity)
        self.fabric = fabric
        self._switch_offset = offset = self.num_endpoints
        self._fabric_first = self.links.num_links
        fabric.build_links(self.links, offset, link_capacity)
        ports = np.arange(self.num_endpoints, dtype=np.int64)
        # access cable p: link 2p climbs from endpoint p, 2p + 1 descends
        self._access_first = self.links.num_links
        self.links.add_cables(ports, offset + fabric.port_switches(ports),
                              link_capacity)
        self._finalize()

    def vertex_path(self, src: int, dst: int) -> list[int]:
        self._check_endpoint(src)
        self._check_endpoint(dst)
        if src == dst:
            return [src]
        return [src, *(self._switch_offset + s
                       for s in self.fabric.port_path(src, dst)), dst]

    def routes(self, src: np.ndarray, dst: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`route`: the two NIC links alone when the
        endpoints coincide, else the source's access link up, the
        fabric's ``port_links`` and the destination's access link down."""
        src, dst = self._check_endpoints(src, dst)
        return self._fabric_routes(src, dst)

    def candidate_routes(self, src: np.ndarray, dst: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every minimal route of many pairs: one per fabric walk of the
        pair's ports (``port_choices``, capped), in the fabric's
        ``port_links`` variant order, the deterministic walk first."""
        src, dst = self._check_endpoints(src, dst)
        walks_of_pair, _ = self.fabric.port_choices(src, dst)
        pair_ptr, pair, variant = walks.expand(
            np.minimum(walks_of_pair, MAX_ROUTE_CANDIDATES))
        return (pair_ptr,
                *self._fabric_routes(src[pair], dst[pair], variant))

    def _fabric_routes(self, src: np.ndarray, dst: np.ndarray,
                       variant: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
        apart = src != dst
        grid, keep = self.fabric.port_links(src, dst, variant)
        grid += self._fabric_first
        return self._grid_routes(
            src, dst, (self._access_first + 2 * src, apart),
            (grid, keep),
            (self._access_first + 2 * dst + 1, apart))

    def routing_diameter(self) -> int:
        """Worst-case endpoint-to-endpoint hop count."""
        return self.fabric.routing_diameter()
