"""Directed-link registry shared by all topologies.

The flow engine never manipulates graph structure: it only sees *link ids*
and a capacity vector.  :class:`LinkTable` is the bridge — topologies
register every directed link (network links, plus one injection and one
consumption link per endpoint) and translate vertex paths into link-id
arrays.

Links are directed: a full-duplex cable between vertices ``u`` and ``v`` is
two independent links, matching the paper's transceiver model where each
direction carries 10 Gbps.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TopologyError


class LinkTable:
    """Registry mapping directed vertex pairs to dense link ids."""

    def __init__(self) -> None:
        self._ids: dict[tuple[int, int], int] = {}
        self._src: list[int] = []
        self._dst: list[int] = []
        self._cap: list[float] = []
        self._frozen: np.ndarray | None = None
        self._src_arr: np.ndarray | None = None
        self._dst_arr: np.ndarray | None = None
        # frozen lookup index: sorted ``u * V + v`` keys and their link ids
        self._keys: np.ndarray | None = None
        self._key_ids: np.ndarray | None = None
        self._num_vertices = 0

    # ------------------------------------------------------------------ build
    def add(self, u: int, v: int, capacity: float) -> int:
        """Register the directed link ``u -> v`` and return its id.

        Re-registering an existing pair is an error: topologies are expected
        to enumerate their links exactly once.
        """
        if self._frozen is not None:
            raise TopologyError("LinkTable is frozen; no more links may be added")
        if capacity <= 0:
            raise TopologyError(f"link capacity must be positive, got {capacity}")
        key = (u, v)
        if key in self._ids:
            raise TopologyError(f"duplicate link {u} -> {v}")
        link_id = len(self._src)
        self._ids[key] = link_id
        self._src.append(u)
        self._dst.append(v)
        self._cap.append(capacity)
        return link_id

    def add_duplex(self, u: int, v: int, capacity: float) -> tuple[int, int]:
        """Register both directions of a full-duplex cable."""
        return self.add(u, v, capacity), self.add(v, u, capacity)

    def freeze(self) -> None:
        """Finalise the table; capacities become an immutable numpy vector."""
        if self._frozen is None:
            self._frozen = np.asarray(self._cap, dtype=np.float64)
            self._frozen.setflags(write=False)
            src = np.asarray(self._src, dtype=np.int64)
            dst = np.asarray(self._dst, dtype=np.int64)
            self._num_vertices = int(max(src.max(), dst.max())) + 1 \
                if src.size else 0
            keys = src * self._num_vertices + dst
            self._key_ids = np.argsort(keys, kind="stable")
            self._keys = keys[self._key_ids]

    # ----------------------------------------------------------------- lookup
    def id_of(self, u: int, v: int) -> int:
        """Link id of the directed pair ``u -> v``; raises if absent."""
        try:
            return self._ids[(u, v)]
        except KeyError:
            raise TopologyError(f"no link {u} -> {v}") from None

    def ids_of(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`id_of`: the link id of every pair ``u[i] -> v[i]``.

        Looks the pairs up in a sorted ``u * V + v`` key index built at
        freeze time (``V`` is one past the largest vertex id), so it needs
        a frozen table.  Raises :class:`TopologyError` naming the first
        absent link, as :meth:`path_to_links` does.
        """
        if self._keys is None:
            raise TopologyError("LinkTable must be frozen before ids_of")
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        big = self._num_vertices
        inside = (u >= 0) & (u < big) & (v >= 0) & (v < big)
        want = np.where(inside, u * big + v, -1)
        pos = np.searchsorted(self._keys, want)
        np.minimum(pos, self._keys.shape[0] - 1, out=pos)
        found = self._keys[pos] == want if self._keys.size else \
            np.zeros(want.shape, dtype=bool)
        if not found.all():
            i = int(np.flatnonzero(~found)[0])
            raise TopologyError(f"no link {int(u[i])} -> {int(v[i])}")
        return self._key_ids[pos]

    def has(self, u: int, v: int) -> bool:
        """True when the directed link ``u -> v`` exists."""
        return (u, v) in self._ids

    def endpoints_of(self, link_id: int) -> tuple[int, int]:
        """The ``(src, dst)`` vertex pair of a link id."""
        if not 0 <= link_id < len(self._src):
            raise TopologyError(f"unknown link id {link_id}")
        return self._src[link_id], self._dst[link_id]

    def path_to_links(self, vertices: list[int]) -> list[int]:
        """Translate a vertex walk into the list of traversed link ids."""
        ids = self._ids
        try:
            return [ids[(vertices[i], vertices[i + 1])] for i in range(len(vertices) - 1)]
        except KeyError as exc:
            raise TopologyError(f"walk uses missing link {exc.args[0]}") from None

    # ------------------------------------------------------------- properties
    @property
    def num_links(self) -> int:
        """Total number of directed links registered."""
        return len(self._src)

    @property
    def capacities(self) -> np.ndarray:
        """Immutable per-link capacity vector (bits/s); freezes the table."""
        self.freeze()
        assert self._frozen is not None
        return self._frozen

    @property
    def sources(self) -> np.ndarray:
        """Source vertex per link id (read-only array indexable by link id).

        Like :meth:`pairs`, this never exposes the internal mutable state:
        callers get an immutable view (cached once the table is frozen, a
        fresh read-only copy while it is still being built), so the link
        registry cannot be corrupted after freeze.
        """
        if self._frozen is not None:
            if self._src_arr is None:
                self._src_arr = self._readonly(self._src)
            return self._src_arr
        return self._readonly(self._src)

    @property
    def destinations(self) -> np.ndarray:
        """Destination vertex per link id (read-only array, see
        :attr:`sources`)."""
        if self._frozen is not None:
            if self._dst_arr is None:
                self._dst_arr = self._readonly(self._dst)
            return self._dst_arr
        return self._readonly(self._dst)

    @staticmethod
    def _readonly(values: list[int]) -> np.ndarray:
        arr = np.asarray(values, dtype=np.int64)
        arr.setflags(write=False)
        return arr

    def pairs(self) -> dict[tuple[int, int], int]:
        """A copy of the ``(u, v) -> id`` mapping (for tests/analysis)."""
        return dict(self._ids)
