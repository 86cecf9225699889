"""Route storage: one CSR arena of deterministic routes per topology view.

A :class:`RouteCache` keeps, per fault token (a degraded view's
:meth:`~repro.topology.degraded.FaultSet.cache_token`, ``None`` when
healthy), an append-only arena whose row ``r`` of ``(indptr, links)`` is
one pair's route, and a sorted index from the pair key ``src *
num_endpoints + dst`` to its row; the rows a call appends enter the
index at the next lookup of their arena.  Candidate lists of the
multi-path policies stay in the dict :attr:`RouteCache.candidates`.  A
:class:`ViewRoutes` resolves a call's routes with no per-pair Python
loop, routing missing pairs in order of first appearance, in chunks of
:data:`ROUTE_CHUNK`, through :meth:`~repro.topology.base.Topology.routes`.

A plain ``dict`` is accepted wherever a store is (:meth:`RouteCache.of`):
the call gets a store of its own, each view seeds its arena from the
dict's ``(src, dst)`` / ``(src, dst, token)`` entries, every pair routed
is written back under such a key, and the candidate lists live in the
dict itself.  That costs a Python step per pair and call.
"""

from __future__ import annotations

import time

import numpy as np

from repro.engine.maxmin import _slices_concat
from repro.topology.base import Topology
from repro.topology.degraded import FaultSet

#: Most pairs one :meth:`~repro.topology.base.Topology.routes` call routes,
#: which bounds the batch's transient CSR however many pairs miss.
ROUTE_CHUNK = 65_536

_EMPTY = np.empty(0, dtype=np.int64)


def cache_token(topology: Topology):
    """The store partition of a view: its fault set's
    :meth:`~repro.topology.degraded.FaultSet.cache_token`, ``None`` when
    healthy."""
    faults = getattr(topology, "faults", None)
    return faults.cache_token() if isinstance(faults, FaultSet) else None


def flow_pairs(src: np.ndarray, dst: np.ndarray,
               num_endpoints: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted unique pair keys of the flows ``src[i] -> dst[i]`` with
    ``src != dst``, and each flow's index into them (``-1`` if zero-hop)."""
    network = src != dst
    pairs, inverse = np.unique(
        src[network].astype(np.int64) * np.int64(num_endpoints)
        + dst[network], return_inverse=True)
    pair_of_flow = np.full(src.shape[0], -1, dtype=np.int64)
    pair_of_flow[network] = inverse
    return pairs, pair_of_flow


def _fit(arr: np.ndarray, used: int, size: int) -> np.ndarray:
    """``arr``, or a geometrically grown copy of its first ``used``
    entries, with room for ``size``."""
    if size <= arr.shape[0]:
        return arr
    out = np.empty(max(size, 2 * arr.shape[0]), dtype=arr.dtype)
    out[:used] = arr[:used]
    return out


class _Arena:
    """The append-only routes of one fault token and their pair index."""

    def __init__(self) -> None:
        self.rows = self._indexed = 0
        self.indptr = np.zeros(1, dtype=np.int64)
        self.links = self.keys = _EMPTY
        self._index = (_EMPTY, _EMPTY)   # sorted keys, their rows

    def append(self, keys: np.ndarray, indptr: np.ndarray,
               links: np.ndarray) -> np.ndarray:
        """Append the CSR rows ``(indptr, links)`` under ``keys``, taking
        over the arrays of a first append; returns their row ids."""
        r0, k, nnz = self.rows, keys.shape[0], int(self.indptr[self.rows])
        if r0 == 0:
            self.indptr, self.links, self.keys, self.rows = \
                indptr, links, keys, k
            return np.arange(k, dtype=np.int64)
        self.indptr = _fit(self.indptr, r0 + 1, r0 + k + 1)
        self.indptr[r0 + 1:r0 + k + 1] = indptr[1:] + nnz
        self.links = _fit(self.links, nnz, nnz + links.shape[0])
        self.links[nnz:nnz + links.shape[0]] = links
        self.keys = _fit(self.keys, r0, r0 + k)
        self.keys[r0:r0 + k] = keys
        self.rows = r0 + k
        return np.arange(r0, r0 + k, dtype=np.int64)

    def find(self, keys: np.ndarray) -> np.ndarray:
        """The row of every pair key, ``-1`` where absent, after merging
        the rows appended since the last lookup into the index."""
        if self._indexed < self.rows:
            order = np.argsort(self.keys[:self.rows])
            self._index = (self.keys[order], order)
            self._indexed = self.rows
        index_keys, index_rows = self._index
        if index_keys.shape[0] == 0:
            return np.full(keys.shape[0], -1, dtype=np.int64)
        pos = np.minimum(np.searchsorted(index_keys, keys),
                         index_keys.shape[0] - 1)
        return np.where(index_keys[pos] == keys, index_rows[pos], -1)


class RouteCache:
    """The deterministic routes of one machine's views, one arena per
    fault token, and its multi-path candidate lists.  ``len()`` counts
    the stored deterministic routes."""

    def __init__(self) -> None:
        #: ``("cands", src, dst, token)`` -> candidate routes of a pair.
        self.candidates: dict = {}
        self._arenas: dict[object, _Arena] = {}
        self._legacy: dict | None = None

    @classmethod
    def of(cls, route_cache: RouteCache | dict | None) -> RouteCache:
        """``route_cache`` itself, a fresh store for ``None``, or a
        per-call store over a plain dict."""
        if isinstance(route_cache, RouteCache):
            return route_cache
        cache = cls()
        if route_cache is not None:
            cache.candidates = cache._legacy = route_cache
        return cache

    def __len__(self) -> int:
        return sum(arena.rows for arena in self._arenas.values())


class ViewRoutes:
    """The routes of the sorted unique pair keys ``pairs`` over one
    topology view: ``pair_row[i]`` is the arena row of ``pairs[i]``,
    ``-1`` until routed.  ``collector`` times the routing under
    ``route_construction``."""

    def __init__(self, cache: RouteCache, topology: Topology,
                 pairs: np.ndarray, collector=None) -> None:
        self.topology = topology
        self.token = cache_token(topology)
        self._arena = cache._arenas.setdefault(self.token, _Arena())
        self._legacy = cache._legacy
        self._collector = collector
        self.pairs = pairs
        self.pair_row = self._arena.find(pairs)
        if self._legacy is not None:
            self._seed()

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """Arena rows of the pairs ``ids``, routing the missing ones."""
        rows = self.pair_row[ids]
        missing = rows < 0
        if missing.any():
            self._fill(ids[missing])
            rows = self.pair_row[ids]
        return rows

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(lens, links)``: the CSR of the routes in ``rows``, a view of
        the arena when the rows are consecutive (a fresh fill)."""
        lo = self._arena.indptr[rows]
        hi = self._arena.indptr[rows + 1]
        k = rows.shape[0]
        if k > 1 and rows[-1] - rows[0] == k - 1 \
                and (rows[1:] - rows[:-1] == 1).all():
            return hi - lo, self._arena.links[lo[0]:hi[-1]]
        return hi - lo, self._arena.links[_slices_concat(lo, hi)]

    def route(self, i: int) -> np.ndarray:
        """The route of pair ``i`` alone."""
        row = int(self.pair_row[i])
        if row < 0:
            row = int(self.rows(np.array([i]))[0])
        return self._arena.links[self._arena.indptr[row]:
                                 self._arena.indptr[row + 1]]

    def _key(self, s: int, d: int) -> tuple:
        return (s, d) if self.token is None else (s, d, self.token)

    def _append(self, ids, indptr, links) -> None:
        self.pair_row[ids] = self._arena.append(self.pairs[ids], indptr,
                                                links)

    def _seed(self) -> None:
        """Copy the plain dict's routes of the missing pairs."""
        ids = np.flatnonzero(self.pair_row < 0)
        src, dst = np.divmod(self.pairs[ids], self.topology.num_endpoints)
        found = list(map(self._legacy.get,
                         map(self._key, src.tolist(), dst.tolist())))
        hit = np.fromiter((r is not None for r in found), dtype=bool,
                          count=len(found))
        if hit.any():
            seeded = [r for r in found if r is not None]
            indptr = np.zeros(len(seeded) + 1, dtype=np.int64)
            np.cumsum([r.shape[0] for r in seeded], out=indptr[1:])
            self._append(ids[hit], indptr, np.concatenate(seeded))

    def _fill(self, ids: np.ndarray) -> None:
        """Route and store the missing pairs ``ids`` in order of first
        appearance; a plain dict gets each row as a view of its chunk."""
        if ids.shape[0] > 1:
            uniq, first = np.unique(ids, return_index=True)
            ids = uniq[np.argsort(first)]
        src, dst = np.divmod(self.pairs[ids], self.topology.num_endpoints)
        t0 = time.perf_counter()
        for lo in range(0, ids.shape[0], ROUTE_CHUNK):
            part = slice(lo, lo + ROUTE_CHUNK)
            indptr, links = self.topology.routes(src[part], dst[part])
            self._append(ids[part], indptr, links)
            if self._legacy is not None:
                bounds = indptr.tolist()
                for j, (s, d) in enumerate(zip(src[part].tolist(),
                                               dst[part].tolist())):
                    self._legacy[self._key(s, d)] = \
                        links[bounds[j]:bounds[j + 1]]
        if self._collector is not None:
            self._collector.add_time("route_construction",
                                     time.perf_counter() - t0)
