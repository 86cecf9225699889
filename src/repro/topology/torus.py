"""Direct d-dimensional torus/mesh topology.

Endpoints are the routers (there are no switches): each QFDB forwards
traffic for its neighbours, exactly like the backplane-connected tori of the
ExaNeSt blades.  Routing is dimension-order (DOR) with wrap-aware shortest
direction, matching the paper's Torus3D baseline.

The reference full-scale system (131,072 QFDBs as a 32x64x64 torus) has
diameter 80 and average distance ~40, the values quoted under Table 1.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import TopologyError
from repro.routing import dor, walks
from repro.topology.base import MAX_ROUTE_CANDIDATES, Topology
from repro.topology.planner import torus_dims
from repro.units import DEFAULT_LINK_CAPACITY


class TorusTopology(Topology):
    """A ``k_1 x ... x k_d`` torus (or mesh) of endpoints with DOR routing."""

    name = "torus"

    def __init__(self, dims: Sequence[int], *, wraparound: bool = True,
                 link_capacity: float = DEFAULT_LINK_CAPACITY,
                 nic_capacity: float | None = None) -> None:
        dims = tuple(int(k) for k in dims)
        if not dims or any(k < 1 for k in dims):
            raise TopologyError(f"invalid torus dimensions {dims}")
        n = 1
        for k in dims:
            n *= k
        super().__init__(n, 0, link_capacity, nic_capacity)
        self.dims = dims
        self.wraparound = wraparound
        if not wraparound:
            self.name = "mesh"

        self.links.add_links(*dor.neighbor_links(dims, torus=wraparound),
                             link_capacity)
        self._finalize()

    @classmethod
    def cubic(cls, num_endpoints: int, dims: int = 3, **kwargs) -> "TorusTopology":
        """Near-balanced ``dims``-dimensional torus over ``num_endpoints``."""
        return cls(torus_dims(num_endpoints, dims), **kwargs)

    # ---------------------------------------------------------------- routing
    def vertex_path(self, src: int, dst: int) -> list[int]:
        self._check_endpoint(src)
        self._check_endpoint(dst)
        coords = dor.path(dor.index_to_coord(src, self.dims),
                          dor.index_to_coord(dst, self.dims),
                          self.dims, torus=self.wraparound)
        return [dor.coord_to_index(c, self.dims) for c in coords]

    def routes(self, src: np.ndarray, dst: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`route`: the torus links come first in the link
        table, so a hop's :func:`~repro.routing.dor.path_links` ordinal
        is its link id."""
        src, dst = self._check_endpoints(src, dst)
        return self._grid_routes(
            src, dst, dor.path_links(src, dst, self.dims,
                                     torus=self.wraparound))

    def candidate_routes(self, src: np.ndarray, dst: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every minimal DOR route of many pairs: both wrap directions in
        each dimension with an exact even-radix tie
        (:func:`~repro.routing.dor.wrap_ties`), in the product order of
        :func:`~repro.routing.dor.path_links`' variants, the positive
        tie-break first."""
        src, dst = self._check_endpoints(src, dst)
        ties = dor.wrap_ties(src, dst, self.dims, torus=self.wraparound)
        pair_ptr, pair, variant = walks.expand(
            np.minimum(1 << ties.sum(axis=0), MAX_ROUTE_CANDIDATES))
        src, dst = src[pair], dst[pair]
        return (pair_ptr, *self._grid_routes(src, dst, dor.path_links(
            src, dst, self.dims, torus=self.wraparound, variant=variant)))

    # --------------------------------------------------------------- analysis
    def routing_diameter(self) -> int:
        """Exact worst-case DOR hop count."""
        if self.wraparound:
            return sum(k // 2 for k in self.dims)
        return sum(k - 1 for k in self.dims)

    def average_distance_closed_form(self) -> float:
        """Exact DOR average distance over ordered distinct pairs.

        Per dimension of radix ``k`` the expected wrap distance of a uniform
        pair is ``(k^2 // 4) / k``; summing dimensions and conditioning on
        the pair being distinct rescales by ``N / (N - 1)``.
        """
        n = self.num_endpoints
        if n <= 1:
            return 0.0
        expected = sum((k * k // 4) / k for k in self.dims)
        return expected * n / (n - 1)
